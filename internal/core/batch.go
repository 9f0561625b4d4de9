package core

import (
	"fmt"
	"sort"

	"imdist/internal/graph"
	"imdist/internal/parallel"
)

// DefaultBatchShardSize is the number of RR sets per shard of the batch
// query engine. A shard's scratch state is one epoch mark per RR set
// (4 bytes), so 1<<16 sets keep each shard's working set at 256 KiB —
// comfortably inside a per-core L2 cache even with the membership lists
// streaming through it.
const DefaultBatchShardSize = 1 << 16

// BatchInfluence evaluates many seed sets in one pass over the oracle's RR
// sets. The RR-set index space is partitioned into cache-friendly shards of
// DefaultBatchShardSize sets each, and the shards × queries work grid is
// fanned out over a pool of workers goroutines (same knob semantics as
// everywhere else: 0 and 1 evaluate on the calling goroutine, larger values
// use that many workers, negative values one per CPU). Per-shard coverage
// counts are integers and are merged in shard order, so the returned values
// are byte-identical to looping Influence over the same seed sets — for any
// worker count.
//
// The two returned slices have len(seedSets) entries each. errs[i] is non-nil
// when seedSets[i] contains a vertex outside [0, NumVertices()); the
// corresponding values[i] is 0 and the remaining items are unaffected, so one
// bad query never fails a batch. An empty seed set is valid and evaluates
// to 0, exactly as Influence does.
func (o *Oracle) BatchInfluence(seedSets [][]graph.VertexID, workers int) (values []float64, errs []error) {
	return o.batchInfluence(seedSets, workers, DefaultBatchShardSize)
}

// BatchCoverage is BatchInfluence returning raw coverage counts instead of
// influence values: counts[i] is the exact number of RR sets intersecting
// seedSets[i]. It is the batch primitive of the distributed serving tier —
// per-shard counts are integers that merge exactly across a partitioned
// fleet, where the float division by the fleet-wide TotalSets must happen
// once, at the coordinator, to stay byte-identical to a single process.
func (o *Oracle) BatchCoverage(seedSets [][]graph.VertexID, workers int) (counts []int64, errs []error) {
	return o.batchCoverage(seedSets, workers, DefaultBatchShardSize)
}

// batchInfluence is BatchInfluence with an explicit shard size, so tests can
// force multi-shard merging on small RR pools.
func (o *Oracle) batchInfluence(seedSets [][]graph.VertexID, workers, shardSize int) ([]float64, []error) {
	counts, errs := o.batchCoverage(seedSets, workers, shardSize)
	values := make([]float64, len(seedSets))
	for q := range counts {
		if errs[q] != nil {
			continue
		}
		values[q] = o.CoverageInfluence(counts[q])
	}
	return values, errs
}

// batchCoverage is BatchCoverage with an explicit shard size, so tests can
// force multi-shard merging on small RR pools.
func (o *Oracle) batchCoverage(seedSets [][]graph.VertexID, workers, shardSize int) ([]int64, []error) {
	numQueries := len(seedSets)
	values := make([]int64, numQueries)
	errs := make([]error, numQueries)
	if numQueries == 0 {
		return values, errs
	}
	if shardSize < 1 {
		shardSize = DefaultBatchShardSize
	}
	for i, seeds := range seedSets {
		if err := o.ValidateSeeds(seeds); err != nil {
			errs[i] = fmt.Errorf("seed set %d: %w", i, err)
		}
	}
	numShards := (o.numSets + shardSize - 1) / shardSize
	// The packed kernel applies when its block layout matches this call's
	// sharding (always true outside tests that force odd shard sizes): each
	// (shard, query) cell then ORs shard-local rows into an 8 KiB accumulator
	// and popcounts, instead of stamping epoch marks per element. Both paths
	// produce the same exact per-shard integers.
	var packed *bitMatrix
	if o.useBitpack() && shardSize == DefaultBatchShardSize {
		packed = o.packedMatrix()
	}
	// One work item per (shard, query) cell, laid out shard-major: a worker's
	// contiguous chunk of items then walks many queries over the same index
	// range, keeping its scratch and the touched word or membership ranges
	// warm.
	items := numShards * numQueries
	counts := make([]int64, items)
	w := parallel.Resolve(workers, items)
	scratches := make([]*batchScratch, w)
	parallel.For(w, items, func(worker, item int) {
		q := item % numQueries
		if errs[q] != nil {
			return
		}
		shard := item / numQueries
		seeds := seedSets[q]
		sc := scratches[worker]
		if sc == nil {
			sc = &batchScratch{}
			scratches[worker] = sc
		}
		// Single-seed cells always take the membership binary search in
		// shardCoverage: it reads O(log) entries where the popcount would
		// scan the whole row.
		if packed != nil && len(seeds) > 1 {
			if sc.acc == nil {
				sc.acc = make([]uint64, packed.maxBlockWords())
			}
			counts[item] = packed.blockCoverage(seeds, shard, sc.acc)
			return
		}
		lo := shard * shardSize
		hi := lo + shardSize
		if hi > o.numSets {
			hi = o.numSets
		}
		if sc.marks == nil {
			sc.marks = make([]int32, shardSize)
		}
		counts[item] = o.shardCoverage(seeds, lo, hi, sc)
	})
	for q := range seedSets {
		if errs[q] != nil {
			continue
		}
		var hits int64
		for shard := 0; shard < numShards; shard++ {
			hits += counts[shard*numQueries+q]
		}
		values[q] = hits
	}
	return values, errs
}

// batchScratch is the per-worker scratch of the batch engine, reused across
// every (shard, query) cell the worker processes: an epoch-stamped mark array
// of one shard's width for the epoch kernel, and a covered-word accumulator
// of one block's width for the bitpack kernel. Each side allocates lazily on
// the first cell that needs it.
type batchScratch struct {
	marks []int32
	epoch int32
	acc   []uint64
}

// shardCoverage counts the RR sets with index in [lo, hi) that intersect
// seeds. The count is exact, so summing it over a partition of the index
// space reproduces the serial distinct count.
func (o *Oracle) shardCoverage(seeds []graph.VertexID, lo, hi int, sc *batchScratch) int64 {
	if len(seeds) == 0 {
		return 0
	}
	if len(seeds) == 1 {
		// No dedup needed across a single membership list: each RR set holds
		// a vertex at most once, matching the serial single-seed fast path.
		m := o.memberOf[seeds[0]]
		return int64(lowerBound(m, int32(hi)) - lowerBound(m, int32(lo)))
	}
	sc.epoch++
	if sc.epoch <= 0 { // epoch wrapped: reset the stamps
		clear(sc.marks)
		sc.epoch = 1
	}
	var hits int64
	for _, v := range seeds {
		m := o.memberOf[v]
		for _, idx := range m[lowerBound(m, int32(lo)):] {
			if int(idx) >= hi {
				break
			}
			if sc.marks[int(idx)-lo] != sc.epoch {
				sc.marks[int(idx)-lo] = sc.epoch
				hits++
			}
		}
	}
	return hits
}

// lowerBound returns the first position in the ascending list m whose value
// is >= bound. Membership lists are built in RR-set order (buildMemberIndex),
// so they are always sorted.
func lowerBound(m []int32, bound int32) int {
	return sort.Search(len(m), func(i int) bool { return m[i] >= bound })
}
