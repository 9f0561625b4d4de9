package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/estimator"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// distributionSamples is a sample number per approach that keeps a Karate
// trial in the millisecond range.
var distributionSamples = map[estimator.Approach]int{
	estimator.Oneshot:  16,
	estimator.Snapshot: 16,
	estimator.RIS:      512,
}

// TestRunDistributionIndependentOfWorkers pins the study contract: trials fan
// out over the workers, each on its own stream pair, so every worker count
// gives the trials of Workers 0. It covers every approach under IC and LT,
// eager and lazy greedy, and trial counts below, at and above the worker
// counts. A config whose trials all fail returns the lowest-index trial's
// error at every worker count.
func TestRunDistributionIndependentOfWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 3, -1}
	ig := karateIWC(t)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		oracle, err := NewOracleForModel(ig, model, 4000, rng.NewXoshiro(31))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range estimator.All() {
			for _, lazy := range []bool{false, true} {
				for _, trials := range []int{1, 2, 7} {
					cfg := RunConfig{
						Graph: ig, Approach: a, SampleNumber: distributionSamples[a], SeedSize: 2,
						Trials: trials, MasterSeed: 77, Oracle: oracle, Lazy: lazy, Model: model,
					}
					ref, err := RunDistribution(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range workerCounts {
						cfg.Workers = workers
						got, err := RunDistribution(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Trials, ref.Trials) {
							t.Errorf("%v/%v lazy=%v trials=%d workers=%d: trials differ from Workers=0:\n got %+v\nwant %+v",
								model, a, lazy, trials, workers, got.Trials, ref.Trials)
						}
					}
				}
			}
		}
	}

	// uc0.1 on Karate gives a vertex incoming weight 1.7, invalid under LT,
	// so every trial fails to build its estimator.
	invalid, err := workload.Assign(ig.Graph, workload.UC01, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Graph: invalid, Approach: estimator.Snapshot, SampleNumber: 4, SeedSize: 1,
		Trials: 5, MasterSeed: 3, Oracle: mustOracle(t, invalid, 100, 1), Model: diffusion.LT,
	}
	_, ref := RunDistribution(cfg)
	if !errors.Is(ref, diffusion.ErrInvalidLTWeights) {
		t.Fatalf("Workers=0 err = %v, want ErrInvalidLTWeights", ref)
	}
	for _, workers := range workerCounts {
		cfg.Workers = workers
		if _, err := RunDistribution(cfg); err == nil || err.Error() != ref.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, ref)
		}
	}
}

// TestRISPoolMatchesOracle is the differential test of the shared RR pool: a
// RIS estimator and NewOracleParallel, given equal sources, draw the same RR
// sets, so the estimator's single-vertex estimate equals the oracle's
// influence of that vertex bit for bit, at different worker counts.
func TestRISPoolMatchesOracle(t *testing.T) {
	g, err := gen.BarabasiAlbert(1000, 3, rng.NewXoshiro(41))
	if err != nil {
		t.Fatal(err)
	}
	const theta = 5000
	for _, c := range []struct {
		model  diffusion.Model
		weight workload.Model
	}{{diffusion.IC, workload.UC01}, {diffusion.LT, workload.IWC}} {
		ig, err := workload.Assign(g, c.weight, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, err := estimator.New(estimator.RIS, estimator.Config{
			Graph: ig, SampleNumber: theta, Source: rng.NewXoshiro(11), Model: c.model, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewOracleParallel(ig, c.model, theta, 3, rng.NewXoshiro(11))
		if err != nil {
			t.Fatal(err)
		}
		mismatches := 0
		for v := 0; v < ig.NumVertices(); v++ {
			inf, err := oracle.Influence([]graph.VertexID{graph.VertexID(v)})
			if err != nil {
				t.Fatal(err)
			}
			if got := est.Estimate(graph.VertexID(v)); got != inf {
				if mismatches == 0 {
					t.Errorf("%v: vertex %d: RIS estimate %v != oracle influence %v", c.model, v, got, inf)
				}
				mismatches++
			}
		}
		if mismatches > 0 {
			t.Errorf("%v: %d of %d vertices differ", c.model, mismatches, ig.NumVertices())
		}
	}
}

// BenchmarkRunDistribution times one study cell, Snapshot on Karate with 24
// trials, run one trial at a time and fanned out over two workers.
func BenchmarkRunDistribution(b *testing.B) {
	ig := karateIWC(b)
	oracle := mustOracle(b, ig, 20000, 3)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunDistribution(RunConfig{
					Graph: ig, Approach: estimator.Snapshot, SampleNumber: 64, SeedSize: 4,
					Trials: 24, MasterSeed: uint64(i + 1), Oracle: oracle, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
