package server

import (
	"context"
	"strconv"

	"imdist/internal/core"
	"imdist/internal/graph"
)

// Backend answers the public queries of one sketch in exact integer RR-set
// counts plus the core.Scale they are divided by, so every influence the
// handlers serve is one expression over integers, whichever backend counted
// them. A loaded sketch (registry entry) implements it in a single process;
// a shard fleet (internal/cluster) implements it behind the coordinator.
//
// Seed sets arrive canonical — ascending, distinct, non-empty — but not
// range-checked, because a fleet learns its vertex count only from its
// answer. A set reaching outside [0, Scale.Vertices) is the handler's to
// reject: the backend neither evaluates nor caches it, and counts it 0.
type Backend interface {
	// Coverage counts the RR sets one seed set covers.
	Coverage(ctx context.Context, seeds []int) (int64, core.Scale, error)
	// BatchCoverage is Coverage for many distinct seed sets.
	BatchCoverage(ctx context.Context, seedSets [][]int) ([]int64, core.Scale, error)
	// Greedy selects min(k, n) seeds by greedy maximum coverage and returns
	// them in selection order with the number of RR sets they cover.
	Greedy(ctx context.Context, k int) ([]graph.VertexID, int64, core.Scale, error)
	// Top returns the k vertices of highest single-vertex coverage, ranked by
	// core.TopVertices, with their counts.
	Top(ctx context.Context, k int) ([]graph.VertexID, []int64, core.Scale, error)
}

// Resolver maps a request's {sketch} path segment ("" on the unnamed
// routes) to the Backend answering it. A non-nil release is called once the
// request has been answered.
type Resolver func(sketch string) (b Backend, release func(), err error)

// StatusError is an error served with its own HTTP status and message: a
// sketch that is not loaded (404), a misassembled (502) or degraded (503)
// fleet. Any other backend error is served as a 500.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// The registry entry is the single-process Backend. Its LRU result cache
// and single-flight group live on the entry, so they share the loaded
// sketch's lifetime: a reload swaps in a fresh entry with an empty cache.
// Counts are cached under the entry's identity prefix plus the canonical
// request, one lookup per distinct valid seed set.

func (e *sketchEntry) Coverage(_ context.Context, seeds []int) (int64, core.Scale, error) {
	scale := e.oracle.Scale()
	if !inRange(seeds, scale.Vertices) {
		return 0, scale, nil
	}
	key := seedsKey(e.keyPrefix, seeds)
	if v, ok := e.cache.Get(key); ok {
		return v.(int64), scale, nil
	}
	hits, err := e.oracle.Coverage(toVertexIDs(seeds))
	if err != nil {
		return 0, scale, err
	}
	e.cache.Put(key, hits)
	return hits, scale, nil
}

// BatchCoverage resolves each set against the LRU first and evaluates the
// misses in one pass through the oracle's sharded batch engine.
func (e *sketchEntry) BatchCoverage(_ context.Context, seedSets [][]int) ([]int64, core.Scale, error) {
	scale := e.oracle.Scale()
	counts := make([]int64, len(seedSets))
	var (
		missAt   []int
		missKeys []string
		missSets [][]graph.VertexID
	)
	for j, seeds := range seedSets {
		if !inRange(seeds, scale.Vertices) {
			continue
		}
		key := seedsKey(e.keyPrefix, seeds)
		if v, ok := e.cache.Get(key); ok {
			counts[j] = v.(int64)
			continue
		}
		missAt = append(missAt, j)
		missKeys = append(missKeys, key)
		missSets = append(missSets, toVertexIDs(seeds))
	}
	if len(missSets) == 0 {
		return counts, scale, nil
	}
	got, errs := e.oracle.BatchCoverage(missSets, e.batchWorkers)
	for m, j := range missAt {
		if errs[m] != nil {
			// Unreachable after the range check, but the oracle's own
			// validation is the final authority.
			return nil, scale, errs[m]
		}
		counts[j] = got[m]
		e.cache.Put(missKeys[m], got[m])
	}
	return counts, scale, nil
}

type greedyResult struct {
	seeds   []graph.VertexID
	covered int64
}

func (e *sketchEntry) Greedy(_ context.Context, k int) ([]graph.VertexID, int64, core.Scale, error) {
	g := e.memo("g:"+strconv.Itoa(k), func() any {
		e.seedRuns.Add(1)
		seeds, covered := e.oracle.GreedyCoverage(k)
		return greedyResult{seeds, covered}
	}).(greedyResult)
	return g.seeds, g.covered, e.oracle.Scale(), nil
}

type topResult struct {
	vertices []graph.VertexID
	counts   []int64
}

func (e *sketchEntry) Top(_ context.Context, k int) ([]graph.VertexID, []int64, core.Scale, error) {
	t := e.memo("t:"+strconv.Itoa(k), func() any {
		vs, counts := core.TopVertices(e.oracle.VertexCoverage(), k)
		return topResult{vs, counts}
	}).(topResult)
	return t.vertices, t.counts, e.oracle.Scale(), nil
}

// memo returns the value cached under key, computing it on a miss. The
// computation is single-flighted: N concurrent cold-cache requests for the
// same greedy run or ranking compute once and share the result.
func (e *sketchEntry) memo(key string, compute func() any) any {
	key = e.keyPrefix + key
	if v, ok := e.cache.Get(key); ok {
		return v
	}
	return e.flight.Do(key, func() any {
		if v, ok := e.cache.Get(key); ok {
			return v
		}
		v := compute()
		e.cache.Put(key, v)
		return v
	})
}
