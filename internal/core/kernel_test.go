package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

func TestKernelAutoPicksBitpackOnDenseOracles(t *testing.T) {
	// Karate RR sets touch a large fraction of the 34 vertices: density far
	// above 1/64, so auto must choose the packed kernel.
	o := mustOracle(t, karateIWC(t), 20000, 1)
	if got := o.KernelResolved(); got != KernelBitpack {
		t.Errorf("auto kernel on Karate = %q, want bitpack", got)
	}
}

// TestDecideAutoKernel pins the auto policy on both sides of its choice.
// payloadBytes is 4 bytes per set plus 4 per member, so each row gives its
// shape as a vertex count, an RR-set count and the mean RR-set size.
func TestDecideAutoKernel(t *testing.T) {
	payload := func(numSets int, meanSet float64) int64 {
		return 4*int64(numSets) + int64(4*meanSet*float64(numSets))
	}
	cases := []struct {
		name         string
		n, numSets   int
		payloadBytes int64
		want         Kernel
	}{
		// The layered benchmark's sparse workload: BA n=10^5 under iwc with
		// 2^20 sets of ≈26 vertices. Packed would be 13.1 GB against a
		// ≈109 MB adjacency.
		{"ic100k-uniform", 100_000, 1 << 20, payload(1<<20, 26), KernelEpoch},
		// The dense workload: BA n=4·10^3 under uc0.1 with 2^18 sets of
		// ≈172 vertices. Packed is 131 MB against a ≈180 MB adjacency.
		{"ic4k-hotspot", 4_000, 1 << 18, payload(1<<18, 172), KernelBitpack},
		// Density 1/4 passes the memory-factor test by far, but the 2.7 GB
		// packed index exceeds the absolute cap.
		{"dense-over-cap", 20_000, 1 << 20, payload(1<<20, 5_000), KernelEpoch},
		// The threshold itself: 6400 sets fill 100 words per row, so packed
		// is 6400·100·8 bytes, and 640000 members (density exactly 1/64)
		// make the adjacency half of that.
		{"density-1/64", 6_400, 6_400, 4*6_400 + 4*640_000, KernelBitpack},
		{"density-below-1/64", 6_400, 6_400, 4*6_400 + 4*639_999, KernelEpoch},
	}
	for _, tc := range cases {
		if got := decideAutoKernel(tc.n, tc.numSets, tc.payloadBytes); got != tc.want {
			t.Errorf("%s: decideAutoKernel(%d, %d, %d) = %q, want %q (packed %d bytes)",
				tc.name, tc.n, tc.numSets, tc.payloadBytes, got, tc.want, PackedIndexBytes(tc.n, tc.numSets))
		}
	}
}

// TestKernelAutoStaysEpochOnSparseOracles is the sparse side of the auto
// policy on a real oracle: a generated scale-free graph under iwc has RR sets
// far below density 1/64, so auto picks epoch and no query path may build
// the packed index.
func TestKernelAutoStaysEpochOnSparseOracles(t *testing.T) {
	g, err := gen.BarabasiAlbert(5000, 4, rng.NewXoshiro(3))
	if err != nil {
		t.Fatal(err)
	}
	ig, err := workload.Assign(g, workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOracleParallel(ig, diffusion.IC, 4000, 2, rng.NewXoshiro(4))
	if err != nil {
		t.Fatal(err)
	}
	members := (o.PayloadBytes() - 4*int64(o.NumSets())) / 4
	if density := float64(members) / (float64(o.NumVertices()) * float64(o.NumSets())); density >= 1.0/64 {
		t.Fatalf("membership density %v is not sparse", density)
	}
	if got := o.KernelResolved(); got != KernelEpoch {
		t.Fatalf("auto kernel on a sparse oracle = %q, want epoch", got)
	}

	seeds := []graph.VertexID{0, 1, 2, 17, 4999}
	if _, err := o.Influence(seeds); err != nil {
		t.Fatal(err)
	}
	if _, errs := o.BatchInfluence([][]graph.VertexID{seeds, {3, 5}, {9}}, 2); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if _, err := o.MarginalCoverage(seeds[:2], []graph.VertexID{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if got := o.GreedySeeds(10); len(got) != 10 {
		t.Fatalf("GreedySeeds(10) returned %d seeds", len(got))
	}
	if o.kernels.packed != nil {
		t.Error("a query on an epoch-kernel oracle built the packed index")
	}
}

// TestSetKernelRejects pins the override's two refusals: an unknown kernel
// name, and bitpack on an oracle whose packed index exceeds the cap the auto
// policy respects (here the ic100k-uniform shape, whose packed index would be
// 13.1 GB). Neither may change the kernel or allocate the index. SetKernel
// reads only the oracle's shape, so the shape alone stands in for an oracle.
func TestSetKernelRejects(t *testing.T) {
	o := mustOracle(t, twoStarGraph(t), 100, 1)
	before := o.KernelResolved()
	if err := o.SetKernel("nope"); err == nil {
		t.Error("SetKernel(nope) accepted")
	}
	if got := o.KernelResolved(); got != before {
		t.Errorf("failed SetKernel changed the kernel from %q to %q", before, got)
	}

	huge := &Oracle{n: 100_000, numSets: 1 << 20}
	if err := huge.SetKernel(KernelBitpack); err == nil {
		t.Fatal("SetKernel(bitpack) accepted a 13.1 GB packed index")
	}
	if got := huge.KernelResolved(); got != KernelEpoch {
		t.Errorf("over-cap oracle resolves kernel %q after a refused override", got)
	}
	if huge.kernels.packed != nil {
		t.Error("a refused override built the packed index")
	}
	if err := huge.SetKernel(KernelEpoch); err != nil {
		t.Errorf("SetKernel(epoch) on the over-cap oracle: %v", err)
	}
}

func TestPackedIndexBytes(t *testing.T) {
	// 34 vertices x 20000 sets in one block: 34 rows of ceil(20000/64) words.
	want := int64(8 * 34 * ((20000 + 63) / 64))
	if got := PackedIndexBytes(34, 20000); got != want {
		t.Errorf("PackedIndexBytes(34, 20000) = %d, want %d", got, want)
	}
	// Multi-block: 2.5 default shards.
	n, sets := 10, DefaultBatchShardSize*2+DefaultBatchShardSize/2
	want = 8 * int64(10*(DefaultBatchShardSize/64)*2+10*((DefaultBatchShardSize/2+63)/64))
	if got := PackedIndexBytes(n, sets); got != want {
		t.Errorf("PackedIndexBytes(%d, %d) = %d, want %d", n, sets, got, want)
	}
}

// kernelOraclePair builds two oracles over the byte-identical RR-set pool
// (same graph, model, count, seed, workers) and pins one to each kernel.
func kernelOraclePair(t *testing.T, ig *graph.InfluenceGraph, model diffusion.Model, numSets, workers int) (epoch, bitpack *Oracle) {
	t.Helper()
	for _, k := range []Kernel{KernelEpoch, KernelBitpack} {
		o, err := NewOracleParallel(ig, model, numSets, workers, rng.NewXoshiro(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		if got := o.KernelResolved(); got != k {
			t.Fatalf("resolved kernel = %q, want %q", got, k)
		}
		if k == KernelEpoch {
			epoch = o
		} else {
			bitpack = o
		}
	}
	return epoch, bitpack
}

// TestKernelEquivalence is the property pinning the whole PR: the bitpack
// kernel returns byte-identical answers to the epoch kernel for Influence,
// BatchInfluence, GreedySeeds and TopSingleVertices, across diffusion models
// and worker counts.
func TestKernelEquivalence(t *testing.T) {
	karate := karateIWC(t)
	cases := []struct {
		name    string
		ig      *graph.InfluenceGraph
		model   diffusion.Model
		numSets int
	}{
		{"twostar-ic", twoStarGraph(t), diffusion.IC, 5000},
		{"karate-ic", karate, diffusion.IC, 30000},
		{"karate-lt", karate, diffusion.LT, 20000},
		// Not a multiple of 64, so the last accumulator word is partial.
		{"karate-ic-ragged", karate, diffusion.IC, 12345},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				epoch, bitpack := kernelOraclePair(t, tc.ig, tc.model, tc.numSets, workers)
				n := epoch.NumVertices()

				// Random seed sets of growing size, duplicates included.
				src := rng.NewXoshiro(7)
				queries := make([][]graph.VertexID, 0, 40)
				for q := 0; q < 40; q++ {
					seeds := make([]graph.VertexID, 1+q%8)
					for i := range seeds {
						seeds[i] = graph.VertexID(src.Uint64() % uint64(n))
					}
					queries = append(queries, seeds)
				}
				queries = append(queries, nil) // empty set is a valid query

				for i, seeds := range queries {
					a, errA := epoch.Influence(seeds)
					b, errB := bitpack.Influence(seeds)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("query %d: err epoch=%v bitpack=%v", i, errA, errB)
					}
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("query %d (%v): Influence epoch=%v bitpack=%v", i, seeds, a, b)
					}
				}

				for _, bw := range []int{1, 4} {
					va, ea := epoch.BatchInfluence(queries, bw)
					vb, eb := bitpack.BatchInfluence(queries, bw)
					for i := range queries {
						if (ea[i] == nil) != (eb[i] == nil) {
							t.Fatalf("batch workers=%d item %d: err epoch=%v bitpack=%v", bw, i, ea[i], eb[i])
						}
						if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
							t.Fatalf("batch workers=%d item %d: epoch=%v bitpack=%v", bw, i, va[i], vb[i])
						}
					}
				}

				for _, k := range []int{1, 2, 5, n + 3} {
					sa := epoch.GreedySeeds(k)
					sb := bitpack.GreedySeeds(k)
					if len(sa) != len(sb) {
						t.Fatalf("GreedySeeds(%d): len epoch=%d bitpack=%d", k, len(sa), len(sb))
					}
					for i := range sa {
						if sa[i] != sb[i] {
							t.Fatalf("GreedySeeds(%d): epoch=%v bitpack=%v", k, sa, sb)
						}
					}
				}

				va, ia := epoch.TopSingleVertices(0)
				vb, ib := bitpack.TopSingleVertices(0)
				for i := range va {
					if va[i] != vb[i] || math.Float64bits(ia[i]) != math.Float64bits(ib[i]) {
						t.Fatalf("TopSingleVertices: item %d epoch=(%v,%v) bitpack=(%v,%v)", i, va[i], ia[i], vb[i], ib[i])
					}
				}
			})
		}
	}
}

// TestKernelEquivalenceMultiShard forces the RR pool past one batch shard so
// the packed block layout, the shard merge, and the partial last block are
// all exercised with more than one block.
func TestKernelEquivalenceMultiShard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard pool is slow in -short mode")
	}
	numSets := DefaultBatchShardSize*2 + 777
	epoch, bitpack := kernelOraclePair(t, karateIWC(t), diffusion.IC, numSets, 4)
	queries := [][]graph.VertexID{{0, 33}, {1, 2, 3}, {5}, {0, 0, 7, 31}}
	va, _ := epoch.BatchInfluence(queries, 4)
	vb, _ := bitpack.BatchInfluence(queries, 4)
	for i := range queries {
		if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
			t.Fatalf("item %d: epoch=%v bitpack=%v", i, va[i], vb[i])
		}
	}
	sa, sb := epoch.GreedySeeds(5), bitpack.GreedySeeds(5)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("GreedySeeds: epoch=%v bitpack=%v", sa, sb)
		}
	}
}

// TestKernelSwitchUnderConcurrentQueries drives queries from several
// goroutines while the kernel is flipped back and forth, pinning that the
// switch is safe and never changes an answer (run under -race in CI).
func TestKernelSwitchUnderConcurrentQueries(t *testing.T) {
	o := mustOracle(t, karateIWC(t), 20000, 1)
	ref, err := o.Influence([]graph.VertexID{0, 33, 7})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			k := KernelEpoch
			if i%2 == 0 {
				k = KernelBitpack
			}
			if err := o.SetKernel(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := o.Influence([]graph.VertexID{0, 33, 7})
				if err != nil || math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("Influence under kernel switch = %v (err %v), want %v", got, err, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuilderKernelThreading pins that ErrorBound runs on the builder's
// cached snapshot oracle and never depends on its kernel.
func TestBuilderKernelThreading(t *testing.T) {
	ig := karateIWC(t)
	bounds := make(map[Kernel]float64)
	for _, k := range []Kernel{KernelEpoch, KernelBitpack} {
		b, err := NewSketchBuilder(ig, diffusion.IC, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AppendBatch(5000); err != nil {
			t.Fatal(err)
		}
		o, err := b.Oracle()
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		bounds[k] = b.ErrorBound(10, 0.01)
		if again, err := b.Oracle(); err != nil || again != o {
			t.Fatalf("ErrorBound did not run on the cached oracle (err %v)", err)
		}
		if got := o.KernelResolved(); got != k {
			t.Errorf("builder oracle kernel = %q after ErrorBound, want %q", got, k)
		}
	}
	if math.Float64bits(bounds[KernelEpoch]) != math.Float64bits(bounds[KernelBitpack]) {
		t.Errorf("ErrorBound differs across kernels: epoch=%v bitpack=%v", bounds[KernelEpoch], bounds[KernelBitpack])
	}
}

// benchmarkCoverageOracle builds a moderately dense synthetic oracle for the
// kernel benchmarks: Karate with enough RR sets that the coverage merge
// dominates query time.
func benchmarkCoverageOracle(b *testing.B, kernel Kernel) (*Oracle, [][]graph.VertexID) {
	b.Helper()
	o, err := NewOracleParallel(karateIWC(b), diffusion.IC, 200000, -1, rng.NewXoshiro(7))
	if err != nil {
		b.Fatal(err)
	}
	if err := o.SetKernel(kernel); err != nil {
		b.Fatal(err)
	}
	src := rng.NewXoshiro(5)
	queries := make([][]graph.VertexID, 256)
	for q := range queries {
		seeds := make([]graph.VertexID, 2+q%7)
		for i := range seeds {
			seeds[i] = graph.VertexID(src.Uint64() % uint64(o.NumVertices()))
		}
		queries[q] = seeds
	}
	// Force the lazy packed build outside the timed region.
	if _, err := o.Influence(queries[0]); err != nil {
		b.Fatal(err)
	}
	return o, queries
}

// BenchmarkCoverage compares the coverage kernels on the query path the
// server hammers: multi-seed Influence over a 200k-set Karate oracle. The
// bench-smoke CI job runs this once per commit, and imbench -compare-kernels
// lands the same comparison in BENCH_kernel.json.
func BenchmarkCoverage(b *testing.B) {
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		b.Run("kernel="+string(kernel), func(b *testing.B) {
			o, queries := benchmarkCoverageOracle(b, kernel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Influence(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoverageBatch compares the kernels inside the sharded batch
// engine (64 queries per call, all CPUs).
func BenchmarkCoverageBatch(b *testing.B) {
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		b.Run("kernel="+string(kernel), func(b *testing.B) {
			o, queries := benchmarkCoverageOracle(b, kernel)
			batch := queries[:64]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, errs := o.BatchInfluence(batch, -1); errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
		})
	}
}

// baGreedyOracle is the generated-graph greedy benchmark's oracle: a
// Barabási–Albert graph (n=2000, m=8) under uc0.1 with 2^16 RR sets, the
// dense-membership shape of the layered benchmark's ic4k workload at a size
// a one-iteration bench smoke can set up quickly. Built once and shared by
// both kernels' sub-benchmarks.
var baGreedyOracle = sync.OnceValues(func() (*Oracle, error) {
	g, err := gen.BarabasiAlbert(2000, 8, rng.NewXoshiro(11))
	if err != nil {
		return nil, err
	}
	ig, err := workload.Assign(g, workload.UC01, nil)
	if err != nil {
		return nil, err
	}
	return NewOracleParallel(ig, diffusion.IC, 1<<16, -1, rng.NewXoshiro(12))
})

// BenchmarkCoverageGreedy compares the kernels on greedy seed selection
// (the /v1/seeds cold path): k=10 on the 200k-set Karate oracle and k=50 on
// the generated BA graph, where the vertex count makes the selection
// strategy, not the per-vertex scan, the cost.
func BenchmarkCoverageGreedy(b *testing.B) {
	run := func(b *testing.B, o *Oracle, k int) {
		o.GreedySeeds(1) // builds the packed index and an idle covered state
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if seeds := o.GreedySeeds(k); len(seeds) != k {
				b.Fatal("short seed set")
			}
		}
	}
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		b.Run("kernel="+string(kernel), func(b *testing.B) {
			o, _ := benchmarkCoverageOracle(b, kernel)
			run(b, o, 10)
		})
	}
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		b.Run("graph=ba2k/kernel="+string(kernel), func(b *testing.B) {
			o, err := baGreedyOracle()
			if err != nil {
				b.Fatal(err)
			}
			if err := o.SetKernel(kernel); err != nil {
				b.Fatal(err)
			}
			run(b, o, 50)
		})
	}
}
