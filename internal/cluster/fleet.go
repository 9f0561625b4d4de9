package cluster

// The fleet backend: server.Backend over the shard servers, so the shared
// query handlers answer from merged integer counts exactly as they answer
// from one loaded sketch.
//
// Distributed greedy seed selection is core.CELF — the loop behind
// core.Oracle.GreedySeeds — with a fleet-wide /v1/shard/marginal scatter as
// its marginal-gain primitive. The summed per-shard gains are exactly the
// unsplit sketch's, and the loop's (gain desc, id asc) selection does not
// depend on how many stale entries each evaluation re-scores (see
// internal/core/marginal.go), so the fleet selects the unsplit sketch's seed
// sequence vertex for vertex. Stale entries are re-evaluated in batches of
// greedyBatch per scatter, so the RPC count per round is O(stale/batch), not
// O(n).

import (
	"context"
	"errors"
	"net/http"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/server"
)

// fleet is the server.Backend for one sketch name on the shard servers.
// It holds no cache and no single-flight: a result is only as fresh as the
// fleet identity it was verified against, and a cache would need
// invalidation keyed on that identity; the shards answer from their own
// caches and the merge is cheap.
type fleet struct {
	c      *Coordinator
	sketch string
}

func (f *fleet) Coverage(ctx context.Context, seeds []int) (int64, core.Scale, error) {
	counts, scale, err := f.BatchCoverage(ctx, [][]int{seeds})
	if err != nil {
		return 0, scale, err
	}
	return counts[0], scale, nil
}

func (f *fleet) BatchCoverage(ctx context.Context, seedSets [][]int) ([]int64, core.Scale, error) {
	counts, view, err := f.c.scatterCoverage(ctx, f.sketch, seedSets)
	if err != nil {
		return nil, core.Scale{}, statusError(err)
	}
	return counts, view.scale(), nil
}

// Greedy selects the same seed sequence, with the same coverage, as
// GreedyCoverage on the unsplit sketch; k is clamped to the vertex count.
func (f *fleet) Greedy(ctx context.Context, k int) ([]graph.VertexID, int64, core.Scale, error) {
	// Round 0: every vertex's membership count in one all-vertex scatter
	// (seeds empty, candidates nil).
	initial, view, err := f.c.scatterMarginal(ctx, f.sketch, nil, nil)
	if err != nil {
		return nil, 0, core.Scale{}, statusError(err)
	}
	marginal := func(seeds, candidates []graph.VertexID, gains []int64) error {
		got, v, err := f.c.scatterMarginal(ctx, f.sketch, toInts(seeds), toInts(candidates))
		if err != nil {
			return err
		}
		// A shard hot-reloaded to a different sketch mid-selection would make
		// the rounds' gains incomparable; rather than merge counts from two
		// different builds, fail the query — the client's retry starts clean.
		if v != view {
			return errors.New("fleet identity changed during seed selection (sketch reloaded mid-query); retry")
		}
		copy(gains, got)
		return nil
	}
	seeds, covered, err := core.CELF(k, initial, f.c.greedyBatch, marginal)
	if err != nil {
		return nil, 0, core.Scale{}, statusError(err)
	}
	return seeds, covered, view.scale(), nil
}

func (f *fleet) Top(ctx context.Context, k int) ([]graph.VertexID, []int64, core.Scale, error) {
	counts, view, err := f.c.scatterMarginal(ctx, f.sketch, nil, nil)
	if err != nil {
		return nil, nil, core.Scale{}, statusError(err)
	}
	vs, top := core.TopVertices(counts, k)
	return vs, top, view.scale(), nil
}

// statusError maps a scatter failure to the status it is served with. A
// shard answering "sketch not loaded" is a client addressing error, not a
// fleet failure: its own 404 passes through verbatim, so unknown-sketch
// requests read exactly as on a single process. An unreachable or erroring
// shard is a 503 naming the missing target; anything else — a misassembled
// fleet — is a 502 naming the offender.
func statusError(err error) error {
	var se *shardError
	if errors.As(err, &se) {
		if se.status == http.StatusNotFound && se.shardMsg != "" {
			return &server.StatusError{Status: http.StatusNotFound, Msg: se.shardMsg}
		}
		if se.unreachable {
			return &server.StatusError{Status: http.StatusServiceUnavailable, Msg: err.Error()}
		}
	}
	return &server.StatusError{Status: http.StatusBadGateway, Msg: err.Error()}
}

// toInts converts vertex ids to the JSON wire form of the shard API.
func toInts(vs []graph.VertexID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
