package core

import (
	"errors"
	"fmt"
	"slices"
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

func TestMarginalCoverageEmptySeedsIsMembershipCount(t *testing.T) {
	o := mustOracle(t, twoStarGraph(t), 500, 6)
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

// marginalCoverageFunc adapts the stateless MarginalCoverage to CELF's
// primitive, as the coordinator's scatter does over a fleet.
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
							seeds, covered, err := CELF(k, initial, batch, marginalCoverageFunc(o))
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
