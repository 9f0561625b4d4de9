package imdist

import (
	"math"
	"path/filepath"
	"testing"

	"imdist/internal/core"
)

// pinKernel forces o onto kernel k through the core override, which only the
// equivalence tests and imbench -compare-kernels use.
func pinKernel(t *testing.T, o *InfluenceOracle, k core.Kernel) {
	t.Helper()
	if err := o.o.SetKernel(k); err != nil {
		t.Fatal(err)
	}
}

// kernelOracles builds the same sketch twice and pins one copy to each
// kernel.
func kernelOracles(t *testing.T) (epoch, bitpack *InfluenceOracle) {
	t.Helper()
	ig := karateUC(t)
	build := func(k core.Kernel) *InfluenceOracle {
		o, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 30000, Seed: 11, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		pinKernel(t, o, k)
		return o
	}
	return build(core.KernelEpoch), build(core.KernelBitpack)
}

// assertOraclesAnswerIdentically drives the full public query surface of two
// oracles and requires bitwise-equal answers: Influence over a spread of seed
// sets, BatchInfluence at two worker counts, GreedySeeds and TopVertices.
func assertOraclesAnswerIdentically(t *testing.T, want, got *InfluenceOracle) {
	t.Helper()
	n := want.NumVertices()
	seedSets := make([][]int, 0, 30)
	for i := 0; i < 30; i++ {
		size := 1 + i%5
		set := make([]int, 0, size)
		for j := 0; j < size; j++ {
			set = append(set, (i*13+j*5+1)%n)
		}
		seedSets = append(seedSets, set)
	}
	for i, seeds := range seedSets {
		w := mustInfluence(t, want, seeds)
		g := mustInfluence(t, got, seeds)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("Influence(%v) [set %d]: %v vs %v", seeds, i, w, g)
		}
	}
	for _, workers := range []int{1, 4} {
		wantVals, wantErrs := want.BatchInfluence(seedSets, workers)
		gotVals, gotErrs := got.BatchInfluence(seedSets, workers)
		for i := range seedSets {
			if wantErrs[i] != nil || gotErrs[i] != nil {
				t.Fatalf("batch errs[%d]: %v vs %v", i, wantErrs[i], gotErrs[i])
			}
			if math.Float64bits(wantVals[i]) != math.Float64bits(gotVals[i]) {
				t.Fatalf("BatchInfluence workers=%d item %d: %v vs %v", workers, i, wantVals[i], gotVals[i])
			}
		}
	}
	wantSeeds := want.GreedySeeds(6)
	gotSeeds := got.GreedySeeds(6)
	if len(wantSeeds) != len(gotSeeds) {
		t.Fatalf("GreedySeeds lengths %d vs %d", len(wantSeeds), len(gotSeeds))
	}
	for i := range wantSeeds {
		if wantSeeds[i] != gotSeeds[i] {
			t.Fatalf("GreedySeeds[%d]: %d vs %d", i, wantSeeds[i], gotSeeds[i])
		}
	}
	wantTop, wantInfs := want.TopVertices(8)
	gotTop, gotInfs := got.TopVertices(8)
	for i := range wantTop {
		if wantTop[i] != gotTop[i] || math.Float64bits(wantInfs[i]) != math.Float64bits(gotInfs[i]) {
			t.Fatalf("TopVertices[%d]: (%d, %v) vs (%d, %v)", i, wantTop[i], wantInfs[i], gotTop[i], gotInfs[i])
		}
	}
}

// TestOracleOptionsKernel pins that an OracleOptions build runs the auto
// policy's kernel — bitpack on Karate, whose RR sets are dense — and that
// the two kernels answer the public query surface identically.
func TestOracleOptionsKernel(t *testing.T) {
	o, err := karateUC(t).NewInfluenceOracleWithOptions(OracleOptions{RRSets: 30000, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Kernel(); got != "bitpack" {
		t.Errorf("Karate oracle reports kernel %q, want auto's bitpack", got)
	}
	epoch, bitpack := kernelOracles(t)
	if got := epoch.Kernel(); got != "epoch" {
		t.Errorf("epoch oracle reports kernel %q", got)
	}
	if got := bitpack.Kernel(); got != "bitpack" {
		t.Errorf("bitpack oracle reports kernel %q", got)
	}
	assertOraclesAnswerIdentically(t, epoch, bitpack)
}

// TestSetKernelOnLoadedSketch compares a sketch loaded from disk — the
// imserve scenario, where the loaded oracle picks bitpack for Karate — with
// the original build pinned to epoch, and requires bitwise-identical
// answers.
func TestSetKernelOnLoadedSketch(t *testing.T) {
	ig := karateUC(t)
	built, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 30000, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pinKernel(t, built, core.KernelEpoch)
	path := filepath.Join(t.TempDir(), "karate.sketch")
	if err := built.SaveSketchFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Kernel(); got != "bitpack" {
		t.Errorf("loaded sketch reports kernel %q, want auto's bitpack", got)
	}
	assertOraclesAnswerIdentically(t, built, loaded)
}
