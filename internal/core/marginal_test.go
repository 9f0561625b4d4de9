package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// bothKernels runs fn against the oracle under the epoch and bitpack kernels.
func bothKernels(t *testing.T, o *Oracle, fn func(t *testing.T, o *Oracle)) {
	t.Helper()
	for _, k := range []Kernel{KernelEpoch, KernelBitpack} {
		t.Run(string(k), func(t *testing.T) {
			if err := o.SetKernel(k); err != nil {
				t.Fatal(err)
			}
			fn(t, o)
		})
	}
}

func TestCoverageMatchesInfluence(t *testing.T) {
	o := mustOracle(t, karateIWC(t), 5000, 3)
	seedSets := [][]graph.VertexID{
		nil,
		{0},
		{33},
		{0, 33, 2},
		{5, 5, 5}, // duplicates must not double-count
	}
	bothKernels(t, o, func(t *testing.T, o *Oracle) {
		for _, seeds := range seedSets {
			hits, err := o.Coverage(seeds)
			if err != nil {
				t.Fatalf("Coverage(%v) = %v", seeds, err)
			}
			inf, err := o.Influence(seeds)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(o.NumVertices()) * float64(hits) / float64(o.NumSets())
			if inf != want {
				t.Errorf("Influence(%v) = %v, want %v from %d covered sets", seeds, inf, want, hits)
			}
		}
	})
	if _, err := o.Coverage([]graph.VertexID{99}); !errors.Is(err, ErrSeedOutOfRange) {
		t.Errorf("out-of-range Coverage err = %v", err)
	}
}

func TestBatchCoverageMatchesCoverage(t *testing.T) {
	o := mustOracle(t, karateIWC(t), 5000, 4)
	seedSets := [][]graph.VertexID{
		{0}, {1, 2, 3}, nil, {33, 0}, {99}, {7},
	}
	bothKernels(t, o, func(t *testing.T, o *Oracle) {
		counts, errs := o.BatchCoverage(seedSets, 4)
		for i, seeds := range seedSets {
			if i == 4 {
				if !errors.Is(errs[i], ErrSeedOutOfRange) {
					t.Errorf("item 4 err = %v", errs[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("item %d err = %v", i, errs[i])
			}
			want, err := o.Coverage(seeds)
			if err != nil {
				t.Fatal(err)
			}
			if counts[i] != want {
				t.Errorf("BatchCoverage[%d] = %d, want %d", i, counts[i], want)
			}
		}
	})
}

func TestMarginalCoverageMatchesBruteForce(t *testing.T) {
	o := mustOracle(t, karateIWC(t), 3000, 5)
	n := o.NumVertices()
	seedSets := [][]graph.VertexID{
		nil,
		{0},
		{0, 33},
		{0, 33, 2, 5, 8},
	}
	bothKernels(t, o, func(t *testing.T, o *Oracle) {
		for _, seeds := range seedSets {
			base, err := o.Coverage(seeds)
			if err != nil {
				t.Fatal(err)
			}
			gains, err := o.MarginalCoverage(seeds, nil)
			if err != nil {
				t.Fatalf("MarginalCoverage(%v, nil) = %v", seeds, err)
			}
			if len(gains) != n {
				t.Fatalf("nil candidates: %d gains, want %d", len(gains), n)
			}
			for v := 0; v < n; v++ {
				with, err := o.Coverage(append(append([]graph.VertexID(nil), seeds...), graph.VertexID(v)))
				if err != nil {
					t.Fatal(err)
				}
				if gains[v] != with-base {
					t.Errorf("seeds %v: gain[%d] = %d, want %d", seeds, v, gains[v], with-base)
				}
			}
			// An explicit candidate list returns the same gains in its order.
			cands := []graph.VertexID{33, 0, 7}
			sub, err := o.MarginalCoverage(seeds, cands)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cands {
				if sub[i] != gains[c] {
					t.Errorf("seeds %v: candidate gain[%d] = %d, want %d", seeds, c, sub[i], gains[c])
				}
			}
		}
	})
}

// TestMarginalCoverageEmptySeedsIsMembershipCount checks the empty-seed
// path, which reads counts off the member index, for every vertex and for an
// explicit candidate list in its own order, under both kernels.
func TestMarginalCoverageEmptySeedsIsMembershipCount(t *testing.T) {
	o := mustOracle(t, twoStarGraph(t), 500, 6)
	bothKernels(t, o, func(t *testing.T, o *Oracle) {
		gains, err := o.MarginalCoverage(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < o.NumVertices(); v++ {
			want, err := o.Coverage([]graph.VertexID{graph.VertexID(v)})
			if err != nil {
				t.Fatal(err)
			}
			if gains[v] != want {
				t.Errorf("gain[%d] = %d, want membership count %d", v, gains[v], want)
			}
		}
		cands := []graph.VertexID{9, 0, 3, 0}
		sub, err := o.MarginalCoverage([]graph.VertexID{}, cands)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cands {
			if sub[i] != gains[v] {
				t.Errorf("candidate %d: gain %d, want membership count %d", v, sub[i], gains[v])
			}
		}
	})
}

func TestMarginalCoverageValidation(t *testing.T) {
	o := mustOracle(t, twoStarGraph(t), 100, 7)
	if _, err := o.MarginalCoverage([]graph.VertexID{10}, nil); !errors.Is(err, ErrSeedOutOfRange) {
		t.Errorf("bad seed err = %v", err)
	}
	if _, err := o.MarginalCoverage(nil, []graph.VertexID{10}); !errors.Is(err, ErrSeedOutOfRange) {
		t.Errorf("bad candidate err = %v", err)
	}
	if gains, err := o.MarginalCoverage(nil, []graph.VertexID{}); err != nil || len(gains) != 0 {
		t.Errorf("empty candidates = (%v, %v), want empty gains", gains, err)
	}
}

// referenceGreedy is greedy maximum coverage by definition: every round a
// full MarginalCoverage over all vertices and the (max gain, smallest id)
// argmax over the vertices not yet selected. k is clamped to the vertex
// count.
func referenceGreedy(t *testing.T, o *Oracle, k int) []graph.VertexID {
	t.Helper()
	k = min(k, o.NumVertices())
	chosen := make([]bool, o.NumVertices())
	var seeds []graph.VertexID
	for len(seeds) < k {
		gains, err := o.MarginalCoverage(seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := -1
		for v, g := range gains {
			if !chosen[v] && (best < 0 || g > gains[best]) {
				best = v
			}
		}
		chosen[best] = true
		seeds = append(seeds, graph.VertexID(best))
	}
	return seeds
}

// marginalCoverageFunc adapts MarginalCoverage, which takes the whole seed
// set on every call, to CELF's primitive, as the coordinator's scatter does
// over a fleet.
func marginalCoverageFunc(o *Oracle) MarginalFunc {
	return func(seeds, candidates []graph.VertexID, gains []int64) error {
		g, err := o.MarginalCoverage(seeds, candidates)
		copy(gains, g)
		return err
	}
}

// TestMarginalGreedyReproducesGreedySeeds pins the CELF loop to the
// reference argmax: GreedySeeds and GreedyCoverage (the loop on the oracle's
// incremental covered state) and CELF over MarginalCoverage at batch 1 and
// 128 (the coordinator's default) must all select referenceGreedy's exact
// sequence, and the coverage they return must equal Coverage(seeds). It runs
// under both kernels, IC and LT, at k in {1, 5, n, n+3} — the zero-gain tail
// and the k clamp — on an oracle of more than one 64Ki-set block, so the
// bitpack covered bitmap spans blocks, and on one too small to give every
// pick a positive gain.
func TestMarginalGreedyReproducesGreedySeeds(t *testing.T) {
	karate := karateIWC(t)
	lt, err := NewOracleForModel(karate, diffusion.LT, 4000, rng.NewXoshiro(8))
	if err != nil {
		t.Fatal(err)
	}
	oracles := []struct {
		name string
		o    *Oracle
	}{
		{"ic", mustOracle(t, karate, 4000, 8)},
		{"lt", lt},
		{"ic-multiblock", mustOracle(t, karate, DefaultBatchShardSize+4464, 8)},
		// 8 RR sets: at most 8 picks gain anything, so k >= 9 selects a
		// zero-gain tail in id order.
		{"ic-8sets", mustOracle(t, karate, 8, 8)},
	}
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		t.Run(string(kernel), func(t *testing.T) {
			for _, c := range oracles {
				o := c.o
				if err := o.SetKernel(kernel); err != nil {
					t.Fatal(err)
				}
				n := o.NumVertices()
				initial, err := o.MarginalCoverage(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Every k's greedy sequence is a prefix of the full one.
				all := referenceGreedy(t, o, n)
				for _, k := range []int{1, 5, n, n + 3} {
					t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
						want := all[:min(k, n)]
						wantCovered, err := o.Coverage(want)
						if err != nil {
							t.Fatal(err)
						}
						check := func(what string, seeds []graph.VertexID, covered int64) {
							t.Helper()
							if !slices.Equal(seeds, want) {
								t.Fatalf("%s picked %v, reference picked %v", what, seeds, want)
							}
							if covered != wantCovered {
								t.Fatalf("%s coverage %d, Coverage(seeds) %d", what, covered, wantCovered)
							}
						}
						if seeds := o.GreedySeeds(k); !slices.Equal(seeds, want) {
							t.Fatalf("GreedySeeds picked %v, reference picked %v", seeds, want)
						}
						seeds, covered := o.GreedyCoverage(k)
						check("GreedyCoverage", seeds, covered)
						for _, batch := range []int{1, 128} {
							seeds, covered, err := CELF(k, initial, nil, batch, marginalCoverageFunc(o))
							if err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("CELF batch %d", batch), seeds, covered)
						}
					})
				}
			}
		})
	}
}

// bruteMarginal counts, for every vertex, the RR sets that contain it and no
// seed: the marginal gains by definition, computed fresh from the sets.
func bruteMarginal(sets [][]graph.VertexID, n int, seeds []graph.VertexID) []int64 {
	isSeed := make([]bool, n)
	for _, v := range seeds {
		isSeed[v] = true
	}
	gains := make([]int64, n)
	for _, set := range sets {
		if slices.ContainsFunc(set, func(v graph.VertexID) bool { return isSeed[v] }) {
			continue
		}
		for _, v := range set {
			gains[v]++
		}
	}
	return gains
}

// reusePool is an oracle over randomRRSets together with the sets
// themselves, for bruteMarginal.
func reusePool(t testing.TB, n, numSets int, density float64, seed uint64) (*Oracle, [][]graph.VertexID) {
	t.Helper()
	o, err := NewOracleFromRRSets(n, diffusion.IC, 0, randomRRSets(n, numSets, density, seed))
	if err != nil {
		t.Fatal(err)
	}
	return o, randomRRSets(n, numSets, density, seed)
}

// growingSeeds returns a random order of the vertices [0, n): its prefixes
// are the seed sets of one greedy conversation, in pick order.
func growingSeeds(n int, seed uint64) []graph.VertexID {
	src := rng.NewXoshiro(seed)
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// reuseSequence is a MarginalCoverage seed sequence that meets every way a
// call can relate to the covered states earlier calls left: two
// conversations growing by one seed per call, interleaved; a jump by several
// seeds; a shrink; a repeat; and lists in pick order with duplicates.
func reuseSequence(n int, seed uint64) [][]graph.VertexID {
	a, b := growingSeeds(n, seed), growingSeeds(n, seed+1)
	var seq [][]graph.VertexID
	for i := 1; i <= min(n, 6); i++ {
		seq = append(seq, a[:i], b[:i])
	}
	return append(seq,
		a[:min(n, 11)],
		a[:2],
		a[:2],
		append(slices.Clone(a[:min(n, 3)]), a[1], a[0], a[1]),
		b[:min(n, 9)],
		b[:min(n, 10)],
	)
}

// checkMarginal runs MarginalCoverage over every vertex and over a candidate
// list with repeats, and compares both with bruteMarginal.
func checkMarginal(t testing.TB, o *Oracle, sets [][]graph.VertexID, seeds []graph.VertexID) {
	t.Helper()
	n := o.NumVertices()
	want := bruteMarginal(sets, n, seeds)
	got, err := o.MarginalCoverage(seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("seeds %v: gains %v, want %v", seeds, got, want)
	}
	cands := []graph.VertexID{graph.VertexID(n - 1), 0, graph.VertexID(n / 2), 0}
	sub, err := o.MarginalCoverage(seeds, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cands {
		if sub[i] != want[v] {
			t.Errorf("seeds %v: candidate %d gain %d, want %d", seeds, v, sub[i], want[v])
		}
	}
}

// TestMarginalCoverageReuseMatchesBruteForce drives MarginalCoverage, whose
// covered states outlive each call, through reuseSequence on random pools
// under both kernels; every answer must equal a fresh brute-force count. The
// last pool spans two 64Ki-set blocks, so the bitpack covered words do too.
func TestMarginalCoverageReuseMatchesBruteForce(t *testing.T) {
	shapes := append(slices.Clone(indexTestShapes), struct {
		n, numSets int
		density    float64
	}{30, DefaultBatchShardSize + 300, 0.05})
	for si, sh := range shapes {
		t.Run(fmt.Sprintf("n=%d/R=%d", sh.n, sh.numSets), func(t *testing.T) {
			o, sets := reusePool(t, sh.n, sh.numSets, sh.density, uint64(400+si))
			bothKernels(t, o, func(t *testing.T, o *Oracle) {
				for _, seeds := range reuseSequence(sh.n, uint64(si)) {
					checkMarginal(t, o, sets, seeds)
				}
			})
		})
	}
}

// TestMarginalCoverageReuseAcrossKernelFlip flips the kernel between the
// calls of one sequence: a covered state absorbed under one kernel must
// answer exactly under the other.
func TestMarginalCoverageReuseAcrossKernelFlip(t *testing.T) {
	o, sets := reusePool(t, 40, DefaultBatchShardSize+500, 0.1, 17)
	for i, seeds := range reuseSequence(o.NumVertices(), 3) {
		if err := o.SetKernel([]Kernel{KernelEpoch, KernelBitpack}[i%2]); err != nil {
			t.Fatal(err)
		}
		checkMarginal(t, o, sets, seeds)
	}
}

// TestMarginalCoverageReuseConcurrent runs eight growing conversations on one
// oracle at once, under both kernels (run under -race): covered states pass
// between goroutines through the idle list, and every answer must stay
// exact.
func TestMarginalCoverageReuseConcurrent(t *testing.T) {
	o, sets := reusePool(t, 60, 3000, 0.1, 23)
	bothKernels(t, o, func(t *testing.T, o *Oracle) {
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				order := growingSeeds(o.NumVertices(), uint64(100+g))
				for i := 1; i <= 12; i++ {
					want := bruteMarginal(sets, o.NumVertices(), order[:i])
					got, err := o.MarginalCoverage(order[:i], nil)
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("goroutine %d, %d seeds: gains %v (%v), want %v", g, i, got, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if idle := o.idleCovers(); idle > maxIdleCovers {
			t.Errorf("%d idle covered states, want at most %d", idle, maxIdleCovers)
		}
	})
}

// TestMarginalCoverageReuseBoundAndWork pins the cost model: a k-round
// growing sequence, the calls one shard serves for a fleet greedy query,
// absorbs k seeds in all rather than k(k+1)/2, and the idle list never holds
// more than maxIdleCovers states, however many calls ran at once.
func TestMarginalCoverageReuseBoundAndWork(t *testing.T) {
	const k = 20
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		t.Run(string(kernel), func(t *testing.T) {
			o, _ := reusePool(t, 50, 2000, 0.1, 29)
			if err := o.SetKernel(kernel); err != nil {
				t.Fatal(err)
			}
			order := growingSeeds(o.NumVertices(), 31)
			for i := 1; i <= k; i++ {
				if _, err := o.MarginalCoverage(order[:i], order[i:i+8]); err != nil {
					t.Fatal(err)
				}
			}
			if got := o.absorbedSeeds(); got != k {
				t.Errorf("a %d-round growing sequence absorbed %d seeds, want %d", k, got, k)
			}
			var wg sync.WaitGroup
			for g := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					order := growingSeeds(o.NumVertices(), uint64(200+g))
					for i := 1; i <= 6; i++ {
						if _, err := o.MarginalCoverage(order[:i], nil); err != nil {
							t.Error(err)
						}
						if idle := o.idleCovers(); idle > maxIdleCovers {
							t.Errorf("%d idle covered states, want at most %d", idle, maxIdleCovers)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkMarginalRounds replays the calls one shard of a fleet serves for
// a greedy query at k=50: 50 MarginalCoverage calls, each with one more seed
// than the last and 64 candidates. Each op draws its seeds from the next of
// 8 disjoint 50-vertex slices of the ranking, twice maxIdleCovers, so no op
// starts from a state an earlier op left. It reports the seeds absorbed per
// op: 50 when every round starts from the state the previous round left,
// 1,275 when every round absorbs all its seeds.
func BenchmarkMarginalRounds(b *testing.B) {
	const rounds, slicesInTurn = 50, 2 * maxIdleCovers
	o, err := baGreedyOracle()
	if err != nil {
		b.Fatal(err)
	}
	ranked := o.ranking()
	cands := ranked[:64]
	next := 0 // the slice the next op draws from, across every b.N pass
	for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
		b.Run("kernel="+string(kernel), func(b *testing.B) {
			if err := o.SetKernel(kernel); err != nil {
				b.Fatal(err)
			}
			before := o.absorbedSeeds()
			for i := 0; i < b.N; i++ {
				seeds := ranked[next%slicesInTurn*rounds:][:rounds]
				next++
				for r := 1; r <= rounds; r++ {
					if _, err := o.MarginalCoverage(seeds[:r], cands); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(o.absorbedSeeds()-before)/float64(b.N), "absorbed/op")
		})
	}
}

func TestShardLineage(t *testing.T) {
	o := mustOracle(t, twoStarGraph(t), 100, 9)
	if l := o.ShardLineage(); l.Sharded() {
		t.Errorf("fresh oracle sharded: %+v", l)
	}
	good := ShardLineage{Index: 1, Count: 3, TotalSets: 450}
	if err := o.SetShardLineage(good); err != nil {
		t.Fatalf("valid lineage rejected: %v", err)
	}
	if got := o.ShardLineage(); got != good {
		t.Errorf("ShardLineage() = %+v, want %+v", got, good)
	}
	if err := o.SetShardLineage(ShardLineage{}); err != nil {
		t.Fatalf("clearing lineage rejected: %v", err)
	}
	for _, bad := range []ShardLineage{
		{Index: 1, Count: 0, TotalSets: 0},     // nonzero index without count
		{Index: 0, Count: 0, TotalSets: 100},   // nonzero totals without count
		{Index: 3, Count: 3, TotalSets: 450},   // index out of range
		{Index: -1, Count: 3, TotalSets: 450},  // negative index
		{Index: 0, Count: 2, TotalSets: 50},    // fewer total sets than local
		{Index: 0, Count: 200, TotalSets: 150}, // more shards than sets
	} {
		if err := o.SetShardLineage(bad); !errors.Is(err, ErrShardLineage) {
			t.Errorf("lineage %+v err = %v, want ErrShardLineage", bad, err)
		}
	}
}
