package cluster

// Distributed greedy seed selection: core.CELF — the loop behind
// core.Oracle.GreedySeeds — with a fleet-wide /v1/shard/marginal scatter as
// its marginal-gain primitive. The summed per-shard gains are exactly the
// unsplit sketch's, and the loop's (gain desc, id asc) selection does not
// depend on how many stale entries each evaluation re-scores (see
// internal/core/marginal.go), so the fleet selects the unsplit sketch's seed
// sequence vertex for vertex. Stale entries are re-evaluated in batches of
// GreedyBatch per scatter, so the RPC count per round is O(stale/batch), not
// O(n).

import (
	"context"
	"fmt"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/server"
)

// greedySeeds answers /v1/seeds for the fleet: the same seed sequence and
// influence a single process computes with GreedySeeds + Influence on the
// unsplit sketch. k is clamped to the vertex count, as GreedySeeds clamps it.
func (c *Coordinator) greedySeeds(ctx context.Context, sketch string, k int) (server.SeedsResponse, error) {
	// Round 0: every vertex's membership count in one all-vertex scatter
	// (seeds empty, candidates nil).
	first, err := c.scatterMarginal(ctx, sketch, nil, nil)
	if err != nil {
		return server.SeedsResponse{}, err
	}
	marginal := func(seeds, candidates []graph.VertexID, gains []int64) error {
		mg, err := c.scatterMarginal(ctx, sketch, toInts(seeds), toInts(candidates))
		if err != nil {
			return err
		}
		// A shard hot-reloaded to a different sketch mid-selection would make
		// the rounds' gains incomparable; rather than merge counts from two
		// different builds, fail the query — the client's retry starts clean.
		if mg.fleetView != first.fleetView {
			return fmt.Errorf("fleet identity changed during seed selection (sketch reloaded mid-query); retry")
		}
		copy(gains, mg.gains)
		return nil
	}
	seeds, covered, err := core.CELF(k, first.gains, c.cfg.GreedyBatch, marginal)
	if err != nil {
		return server.SeedsResponse{}, err
	}
	return server.SeedsResponse{Seeds: toInts(seeds), Influence: first.influence(covered)}, nil
}

// toInts converts vertex ids to the JSON wire form of the shard API.
func toInts(vs []graph.VertexID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
