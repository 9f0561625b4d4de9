package sketchio

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// spillOracleWithKernel runs a fixed-size spill build, whose store keeps no
// sets and so builds the member index from the file, and finalizes its oracle
// pinned to kernel k.
func spillOracleWithKernel(t *testing.T, path string, total int, seed uint64, k core.Kernel) *core.Oracle {
	t.Helper()
	b, store, res, err := BuildSpill(context.Background(), path, karateGraph(t), diffusion.IC, 2, seed, 0,
		core.BuildTarget{MaxSets: total, MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if res.Sets != total {
		t.Fatalf("spill build stopped at %d sets, want %d", res.Sets, total)
	}
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetKernel(k); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSpillOracleKernelEquivalence pins the byte-identical-answer contract on
// spill-backed oracles: the bitpack kernel must reproduce the epoch kernel's
// influence values bit for bit, its batch answers at several worker counts,
// and its greedy seed selection — even though both oracles built their member
// indexes from RR sets decoded back from spill files.
func TestSpillOracleKernelEquivalence(t *testing.T) {
	const total, seed = 8000, 53
	dir := t.TempDir()
	epoch := spillOracleWithKernel(t, filepath.Join(dir, "epoch.spill"), total, seed, core.KernelEpoch)
	bitpack := spillOracleWithKernel(t, filepath.Join(dir, "bitpack.spill"), total, seed, core.KernelBitpack)
	if got := epoch.KernelResolved(); got != core.KernelEpoch {
		t.Fatalf("epoch oracle resolves kernel %q", got)
	}
	if got := bitpack.KernelResolved(); got != core.KernelBitpack {
		t.Fatalf("bitpack oracle resolves kernel %q", got)
	}

	n := epoch.NumVertices()
	seedSets := make([][]graph.VertexID, 0, 40)
	for i := 0; i < 40; i++ {
		size := 1 + i%6
		set := make([]graph.VertexID, 0, size)
		for j := 0; j < size; j++ {
			set = append(set, graph.VertexID((i*7+j*11+3)%n))
		}
		seedSets = append(seedSets, set)
	}

	for i, seeds := range seedSets {
		want, err := epoch.Influence(seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bitpack.Influence(seeds)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("Influence(%v) [set %d]: epoch %v, bitpack %v", seeds, i, want, got)
		}
	}

	for _, workers := range []int{1, 4} {
		wantVals, wantErrs := epoch.BatchInfluence(seedSets, workers)
		gotVals, gotErrs := bitpack.BatchInfluence(seedSets, workers)
		for i := range seedSets {
			if wantErrs[i] != nil || gotErrs[i] != nil {
				t.Fatalf("batch errs[%d]: epoch %v, bitpack %v", i, wantErrs[i], gotErrs[i])
			}
			if math.Float64bits(wantVals[i]) != math.Float64bits(gotVals[i]) {
				t.Fatalf("BatchInfluence workers=%d item %d: epoch %v, bitpack %v", workers, i, wantVals[i], gotVals[i])
			}
		}
	}

	wantSeeds := epoch.GreedySeeds(7)
	gotSeeds := bitpack.GreedySeeds(7)
	if len(wantSeeds) != len(gotSeeds) {
		t.Fatalf("GreedySeeds lengths: epoch %d, bitpack %d", len(wantSeeds), len(gotSeeds))
	}
	for i := range wantSeeds {
		if wantSeeds[i] != gotSeeds[i] {
			t.Fatalf("GreedySeeds[%d]: epoch %d, bitpack %d", i, wantSeeds[i], gotSeeds[i])
		}
	}
}
