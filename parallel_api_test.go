package imdist

import (
	"reflect"
	"testing"
)

// parallelTestNetwork returns a 400-vertex BA influence network with uniform
// IC probabilities, big enough that parallel Build genuinely interleaves.
func parallelTestNetwork(t testing.TB) *InfluenceNetwork {
	t.Helper()
	network, err := GenerateBA(400, 3, 2020)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := network.AssignProbabilities("uc0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

// assertSeedsMatchWorkers0 requires every listed worker count to reproduce
// the seed set and the cost of Workers 0 for every approach, at a fixed seed.
func assertSeedsMatchWorkers0(t *testing.T, workers []int) {
	t.Helper()
	ig := parallelTestNetwork(t)
	cases := []struct {
		approach Approach
		samples  int
	}{
		{Oneshot, 32},
		{Snapshot, 64},
		{RIS, 4096},
	}
	for _, c := range cases {
		opt := SeedOptions{
			Approach:     c.approach,
			SeedSize:     4,
			SampleNumber: c.samples,
			Seed:         99,
		}
		ref, err := ig.SelectSeeds(opt)
		if err != nil {
			t.Fatalf("%s: %v", c.approach, err)
		}
		for _, w := range workers {
			opt.Workers = w
			got, err := ig.SelectSeeds(opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.approach, w, err)
			}
			if !reflect.DeepEqual(got.Seeds, ref.Seeds) {
				t.Errorf("%s workers=%d: seeds %v != Workers=0 seeds %v", c.approach, w, got.Seeds, ref.Seeds)
			}
			if got.Cost != ref.Cost {
				t.Errorf("%s workers=%d: cost %+v != Workers=0 cost %+v", c.approach, w, got.Cost, ref.Cost)
			}
		}
	}
}

// TestSelectSeedsParallelDeterminism is the acceptance check of the Workers
// contract at the API boundary: for every approach and a fixed seed, Workers
// 2, 4 and -1 reproduce the seed set and cost of Workers 0, and so does a
// repeated Workers 4 run. Workers changes speed, never an answer.
func TestSelectSeedsParallelDeterminism(t *testing.T) {
	assertSeedsMatchWorkers0(t, []int{4, 4, 2, -1})
}

// TestSelectSeedsSerialUnchangedByKnob pins backward compatibility: for every
// approach, leaving Workers at its zero value reproduces exactly what
// Workers 1 produces.
func TestSelectSeedsSerialUnchangedByKnob(t *testing.T) {
	assertSeedsMatchWorkers0(t, []int{1})
}

// TestStudyDistributionParallelDeterminism checks the study harness: for
// every approach, a study whose trials fan out over 1, 2, 3 or all CPUs
// reproduces the entropies, per-trial influences and mean costs of the
// Workers 0 study.
func TestStudyDistributionParallelDeterminism(t *testing.T) {
	ig := parallelTestNetwork(t)
	oracle, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 20000, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	samples := map[Approach]int{Oneshot: 8, Snapshot: 16, RIS: 1024}
	for _, approach := range Approaches() {
		opt := StudyOptions{
			Approach:     approach,
			SeedSize:     3,
			SampleNumber: samples[approach],
			Trials:       8,
			Seed:         7,
			Oracle:       oracle,
		}
		ref, err := ig.StudyDistribution(opt)
		if err != nil {
			t.Fatalf("%s: %v", approach, err)
		}
		for _, workers := range []int{1, 2, 3, -1} {
			opt.Workers = workers
			got, err := ig.StudyDistribution(opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", approach, workers, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s workers=%d: study differs from Workers=0:\n got %+v\nwant %+v", approach, workers, got, ref)
			}
		}
	}
}

// TestOracleParallelDeterminism checks that an oracle build is byte-identical
// across runs and across every worker count, 0 and 1 included, since each RR
// set draws from its own stream, as observed through its influence
// estimates.
func TestOracleParallelDeterminism(t *testing.T) {
	ig := parallelTestNetwork(t)
	probe := []int{0, 1, 2, 3, 50, 100}
	build := func(workers int) []float64 {
		oracle, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 30000, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, len(probe)+1)
		for _, v := range probe {
			out = append(out, mustInfluence(t, oracle, []int{v}))
		}
		return append(out, mustInfluence(t, oracle, probe))
	}
	ref := build(4)
	for _, workers := range []int{4, 2, -1, 0, 1} {
		if got := build(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: oracle estimates %v != %v", workers, got, ref)
		}
	}
}

// TestSelectSeedsParallelLT exercises a Workers 4 run under the Linear
// Threshold model through the public API.
func TestSelectSeedsParallelLT(t *testing.T) {
	network, err := GenerateBA(200, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// iwc assigns in-degree-normalized weights, which are valid LT weights.
	ig, err := network.AssignProbabilities("iwc", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, approach := range Approaches() {
		opt := SeedOptions{
			Approach:     approach,
			SeedSize:     3,
			SampleNumber: 64,
			Seed:         21,
			Model:        LT,
			Workers:      4,
		}
		ref, err := ig.SelectSeeds(opt)
		if err != nil {
			t.Fatalf("%s: %v", approach, err)
		}
		got, err := ig.SelectSeeds(opt)
		if err != nil {
			t.Fatalf("%s: %v", approach, err)
		}
		if !reflect.DeepEqual(got.Seeds, ref.Seeds) || got.Cost != ref.Cost {
			t.Errorf("%s: repeated parallel LT run differs: %+v vs %+v", approach, got, ref)
		}
	}
}
