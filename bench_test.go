package imdist

// This file contains one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks of the public API. Each
// table/figure benchmark drives the same experiment harness cmd/imexp uses,
// at the unit preset so the whole suite completes in minutes; run cmd/imexp
// with -preset small or -preset paper to regenerate the artefacts at full
// fidelity (see EXPERIMENTS.md).

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"imdist/internal/estimator"
	"imdist/internal/experiment"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// benchmarkExperiment runs one registered experiment b.N times on a shared
// unit-preset environment (the environment caches graphs and oracles, so the
// steady-state iteration measures the sweep itself). It reports the number of
// output rows so regressions in coverage are visible alongside timing.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	env, err := experiment.NewEnv(experiment.Unit)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiment.Run(&buf, id, env); err != nil {
			b.Fatal(err)
		}
		rows = strings.Count(buf.String(), "\n")
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable3NetworkStats(b *testing.B)             { benchmarkExperiment(b, "table3") }
func BenchmarkTable4TopSingleVertexInfluence(b *testing.B) { benchmarkExperiment(b, "table4") }
func BenchmarkTable5LeastSampleNumber(b *testing.B)        { benchmarkExperiment(b, "table5") }
func BenchmarkTable6OneshotVsSnapshot(b *testing.B)        { benchmarkExperiment(b, "table6") }
func BenchmarkTable7RISVsSnapshot(b *testing.B)            { benchmarkExperiment(b, "table7") }
func BenchmarkTable8TraversalCost(b *testing.B)            { benchmarkExperiment(b, "table8") }
func BenchmarkTable9IdenticalAccuracyCost(b *testing.B)    { benchmarkExperiment(b, "table9") }
func BenchmarkFig1EntropyKarate(b *testing.B)              { benchmarkExperiment(b, "fig1") }
func BenchmarkFig2EntropyPlateau(b *testing.B)             { benchmarkExperiment(b, "fig2") }
func BenchmarkFig3EntropyByProbability(b *testing.B)       { benchmarkExperiment(b, "fig3") }
func BenchmarkFig4InfluenceBoxPlots(b *testing.B)          { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5GrQcConvergence(b *testing.B)            { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6MeanVsSpread(b *testing.B)               { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7ComparableNumberRatio(b *testing.B)      { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8ComparableSizeRatio(b *testing.B)        { benchmarkExperiment(b, "fig8") }
func BenchmarkExactCheckCrossValidation(b *testing.B)      { benchmarkExperiment(b, "exactcheck") }
func BenchmarkHeuristicsQualityComparison(b *testing.B)    { benchmarkExperiment(b, "heuristics") }

// benchmarkInfluenceGraph returns a dense-ish BA graph (n vertices, m
// attachments, uniform p) for the parallel-engine benchmarks.
func benchmarkInfluenceGraph(b *testing.B, n, m int, p float64) *graph.InfluenceGraph {
	b.Helper()
	network, err := GenerateBA(n, m, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, err := network.AssignUniform(p)
	if err != nil {
		b.Fatal(err)
	}
	return in.ig
}

// BenchmarkParallelBuild measures RIS's Build, θ RR sets, on 1, 2 and 4
// workers on a generated BA graph. Its RR pool is the same at every worker
// count; RIS is the one approach whose Build fans out, since Oneshot and
// Snapshot draw their samples in sequence as the paper does.
func BenchmarkParallelBuild(b *testing.B) {
	ig := benchmarkInfluenceGraph(b, 20000, 8, 0.05)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("RIS/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := estimator.New(estimator.RIS, estimator.Config{
					Graph:        ig,
					SampleNumber: 20000,
					Source:       rng.NewXoshiro(uint64(i + 1)),
					Workers:      workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelOracleBuild measures shared-oracle construction (the
// dominant fixed cost of every study) serially and on the worker pool.
func BenchmarkParallelOracleBuild(b *testing.B) {
	network, err := GenerateBA(20000, 8, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, err := network.AssignUniform(0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := in.NewInfluenceOracleWithOptions(OracleOptions{
					RRSets:  20000,
					Seed:    uint64(i + 1),
					Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectSeeds measures the public API's seed selection for each
// approach on Karate (uc0.1, k=4) at a mid-range sample number.
func BenchmarkSelectSeeds(b *testing.B) {
	network, err := LoadDataset("Karate")
	if err != nil {
		b.Fatal(err)
	}
	ig, err := network.AssignProbabilities("uc0.1", 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		approach Approach
		samples  int
	}{
		{Oneshot, 256},
		{Snapshot, 256},
		{RIS, 16384},
	}
	for _, c := range cases {
		b.Run(string(c.approach), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ig.SelectSeeds(SeedOptions{
					Approach:     c.approach,
					SeedSize:     4,
					SampleNumber: c.samples,
					Seed:         uint64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInfluenceOracle measures oracle construction and queries.
func BenchmarkInfluenceOracle(b *testing.B) {
	network, err := LoadDataset("Karate")
	if err != nil {
		b.Fatal(err)
	}
	ig, err := network.AssignProbabilities("iwc", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Build100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ig.NewInfluenceOracle(100000, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	oracle, err := ig.NewInfluenceOracle(100000, 7)
	if err != nil {
		b.Fatal(err)
	}
	seeds := oracle.GreedySeeds(4)
	b.Run("Query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Influence(seeds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStudyDistribution measures the core methodology primitive: T
// trials of one approach at one sample number.
func BenchmarkStudyDistribution(b *testing.B) {
	network, err := LoadDataset("Karate")
	if err != nil {
		b.Fatal(err)
	}
	ig, err := network.AssignProbabilities("uc0.1", 1)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := ig.NewInfluenceOracle(20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := ig.StudyDistribution(StudyOptions{
			Approach:     Snapshot,
			SeedSize:     4,
			SampleNumber: 64,
			Trials:       24,
			Seed:         uint64(i + 1),
			Oracle:       oracle,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
