package cluster

// The fleet backend: server.Backend over the shard servers, so the shared
// query handlers answer from merged integer counts exactly as they answer
// from one loaded sketch.
//
// Top-k and greedy seed selection read the shards' rankings page by page
// (/v1/shard/top) instead of gathering every vertex's count. Top-k is
// core.TopPaged, Fagin's threshold algorithm over the pages; greedy is
// core.CELF — the loop behind core.Oracle.GreedySeeds — seeded from the same
// pages, with a fleet-wide /v1/shard/marginal scatter as its marginal-gain
// primitive. The summed per-shard gains are exactly the unsplit sketch's,
// and neither loop's (count desc, id asc) answer depends on the page size or
// on how many stale entries each evaluation re-scores (see
// internal/core/marginal.go and rank.go), so the fleet answers with the
// unsplit sketch's ranking and seed sequence vertex for vertex, after
// gathering O(pages + rounds × batch) counts rather than O(n × shards).

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

func (f *fleet) query(ctx context.Context) *query {
	return &query{c: f.c, ctx: ctx, sketch: f.sketch}
}

func (f *fleet) Coverage(ctx context.Context, seeds []int) (int64, core.Scale, error) {
	counts, scale, err := f.BatchCoverage(ctx, [][]int{seeds})
	if err != nil {
		return 0, scale, err
	}
	return counts[0], scale, nil
}

func (f *fleet) BatchCoverage(ctx context.Context, seedSets [][]int) ([]int64, core.Scale, error) {
	q := f.query(ctx)
	counts, err := q.coverage(seedSets)
	if err != nil {
		return nil, core.Scale{}, statusError(err)
	}
	return counts, q.view.scale(), nil
}

// Greedy selects the same seed sequence, with the same coverage, as
// GreedyCoverage on the unsplit sketch; k is clamped to the vertex count.
func (f *fleet) Greedy(ctx context.Context, k int) ([]graph.VertexID, int64, core.Scale, error) {
	q := f.query(ctx)
	seeds, covered, err := core.CELF(k, nil, q.pages(), f.c.greedyBatch, q.marginal)
	if err != nil {
		return nil, 0, core.Scale{}, statusError(err)
	}
	return seeds, covered, q.view.scale(), nil
}

func (f *fleet) Top(ctx context.Context, k int) ([]graph.VertexID, []int64, core.Scale, error) {
	q := f.query(ctx)
	vs, counts, err := core.TopPaged(k, q.pages(), q.marginal)
	if err != nil {
		return nil, nil, core.Scale{}, statusError(err)
	}
	return vs, counts, q.view.scale(), nil
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
