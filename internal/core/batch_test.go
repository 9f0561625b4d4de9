package core

import (
	"errors"
	"runtime"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// batchTestOracle builds a 400-vertex BA oracle with enough RR sets that a
// small explicit shard size produces several shards.
func batchTestOracle(t testing.TB, numSets int) *Oracle {
	t.Helper()
	g, err := gen.BarabasiAlbert(400, 3, rng.NewXoshiro(21))
	if err != nil {
		t.Fatal(err)
	}
	ig, err := graph.NewInfluenceGraph(g, func(_, _ graph.VertexID) float64 { return 0.1 })
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOracleParallelSeeded(ig, diffusion.IC, numSets, -1, 9)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// batchTestQueries is a mixed bag of seed sets: singletons, small sets, a
// larger set, duplicates inside a set, and an empty set.
func batchTestQueries() [][]graph.VertexID {
	return [][]graph.VertexID{
		{0},
		{399},
		{0, 1},
		{5, 5, 5},
		{},
		{10, 20, 30, 40, 50, 60, 70},
		{1, 0}, // permutation of an earlier set
		{123, 7, 7, 300},
	}
}

// TestBatchInfluenceMatchesSerial is the acceptance test of the batch engine:
// for every worker count and for a shard size that forces multi-shard
// merging, BatchInfluence must be byte-identical to looped Influence calls.
func TestBatchInfluenceMatchesSerial(t *testing.T) {
	o := batchTestOracle(t, 5000)
	queries := batchTestQueries()
	want := make([]float64, len(queries))
	for i, seeds := range queries {
		inf, err := o.Influence(seeds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = inf
	}
	for _, workers := range []int{0, 1, 2, 4, -1} {
		for _, shardSize := range []int{0, 512, 4999, 5000, 1 << 20} {
			got, errs := o.batchInfluence(queries, workers, shardSize)
			for i := range queries {
				if errs[i] != nil {
					t.Fatalf("workers=%d shard=%d: unexpected error for query %d: %v", workers, shardSize, i, errs[i])
				}
				if got[i] != want[i] {
					t.Errorf("workers=%d shard=%d: query %d = %v, want %v (serial)", workers, shardSize, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchCoverageMixedSizes checks the batch engine's split between
// queries it answers from the member index offsets (empty and one-seed sets)
// and the cell grid (everything else) on batches that mix them with repeated
// queries, duplicated seeds and an out-of-range seed. At the default shard
// size the pool splits into two blocks, so the bitpack grid merges blocks;
// at 700 both kernels take the epoch cells. Every count and error must equal
// a loop of Coverage, under both kernels, at 1, 2 and 8 workers.
func TestBatchCoverageMixedSizes(t *testing.T) {
	o := batchTestOracle(t, DefaultBatchShardSize+3000)
	queries := [][]graph.VertexID{
		{}, {7}, {7, 9, 300}, {7}, nil, {9, 9}, {400}, {12, 400},
		{399}, {7, 9, 300}, {0, 1, 2, 3, 4, 5, 6, 7}, {}, {0},
	}
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		if err := o.SetKernel(kernel); err != nil {
			t.Fatal(err)
		}
		for _, shardSize := range []int{DefaultBatchShardSize, 700} {
			for _, workers := range []int{1, 2, 8} {
				counts, errs := o.batchCoverage(queries, workers, shardSize)
				for i, seeds := range queries {
					want, err := o.Coverage(seeds)
					if (errs[i] != nil) != (err != nil) || err != nil && !errors.Is(errs[i], ErrSeedOutOfRange) {
						t.Errorf("%s, shard %d, %d workers: query %d error %v, Coverage error %v", kernel, shardSize, workers, i, errs[i], err)
					}
					if counts[i] != want {
						t.Errorf("%s, shard %d, %d workers: query %d = %d, Coverage %d", kernel, shardSize, workers, i, counts[i], want)
					}
				}
			}
		}
	}
}

// TestBatchInfluencePerItemErrors checks that invalid items report errors
// without disturbing their neighbours.
func TestBatchInfluencePerItemErrors(t *testing.T) {
	o := batchTestOracle(t, 1000)
	queries := [][]graph.VertexID{
		{0, 1},
		{-1},
		{3},
		{0, 400}, // out of range high
	}
	values, errs := o.BatchInfluence(queries, 2)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid items got errors: %v, %v", errs[0], errs[2])
	}
	for _, bad := range []int{1, 3} {
		if !errors.Is(errs[bad], ErrSeedOutOfRange) {
			t.Errorf("errs[%d] = %v, want ErrSeedOutOfRange", bad, errs[bad])
		}
		if values[bad] != 0 {
			t.Errorf("values[%d] = %v, want 0 for invalid item", bad, values[bad])
		}
	}
	for _, good := range []int{0, 2} {
		want, err := o.Influence(queries[good])
		if err != nil {
			t.Fatal(err)
		}
		if values[good] != want {
			t.Errorf("values[%d] = %v, want %v", good, values[good], want)
		}
	}
}

// TestBatchInfluenceEmptyBatch checks the trivial cases.
func TestBatchInfluenceEmptyBatch(t *testing.T) {
	o := batchTestOracle(t, 100)
	values, errs := o.BatchInfluence(nil, 4)
	if len(values) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %v, %v", values, errs)
	}
	values, errs = o.BatchInfluence([][]graph.VertexID{{}}, 4)
	if len(values) != 1 || values[0] != 0 || errs[0] != nil {
		t.Errorf("empty seed set returned %v, %v", values, errs)
	}
}

// TestBatchInfluenceConcurrentCallers hammers BatchInfluence from several
// goroutines (run under -race) to verify the engine shares no mutable state
// across calls.
func TestBatchInfluenceConcurrentCallers(t *testing.T) {
	o := batchTestOracle(t, 3000)
	queries := batchTestQueries()
	want, errs := o.BatchInfluence(queries, 1)
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(workers int) {
			for iter := 0; iter < 10; iter++ {
				got, errs := o.batchInfluence(queries, workers, 700)
				for i := range queries {
					if errs[i] != nil {
						done <- errs[i]
						return
					}
					if got[i] != want[i] {
						done <- errors.New("concurrent batch diverged from serial")
						return
					}
				}
			}
			done <- nil
		}(1 + g%4)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCoverageWarmAllocs pins the batch engine's pooled scratch: once
// warm, a 64-query BatchCoverage over two shards allocates its result slices
// but no per-worker mark array (256 KiB at the default shard width) or
// accumulator (8 KiB), on either kernel.
func TestBatchCoverageWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	o := batchTestOracle(t, 1<<17)
	src := rng.NewXoshiro(6)
	queries := make([][]graph.VertexID, 64)
	for i := range queries {
		for range 2 + src.Intn(7) {
			queries[i] = append(queries[i], graph.VertexID(src.Intn(o.NumVertices())))
		}
	}
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		if err := o.SetKernel(kernel); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			o.BatchCoverage(queries, 2)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			o.BatchCoverage(queries, 2)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
			t.Errorf("kernel %s: a warm 64-query BatchCoverage allocates %d bytes, want under 64 KiB", kernel, per)
		}
	}
}

func BenchmarkBatchInfluence(b *testing.B) {
	o := batchTestOracle(b, 200000)
	src := rng.NewXoshiro(4)
	queries := make([][]graph.VertexID, 64)
	for i := range queries {
		set := make([]graph.VertexID, 1+src.Intn(8))
		for j := range set {
			set[j] = graph.VertexID(src.Intn(o.NumVertices()))
		}
		queries[i] = set
	}
	b.Run("looped-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, seeds := range queries {
				if _, err := o.Influence(seeds); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-allcpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, errs := o.BatchInfluence(queries, -1)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
