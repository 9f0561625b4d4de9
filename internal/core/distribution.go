package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"imdist/internal/diffusion"
	"imdist/internal/estimator"
	"imdist/internal/graph"
	"imdist/internal/greedy"
	"imdist/internal/parallel"
	"imdist/internal/rng"
	"imdist/internal/stats"
)

// Trial is one algorithm run: the seed set it produced, the oracle influence
// of that seed set, and the traversal/sample cost the run incurred.
type Trial struct {
	Seeds     []graph.VertexID
	Influence float64
	Cost      diffusion.Cost
}

// RunConfig describes one cell of the experimental design: a fixed influence
// graph, approach, sample number and seed size, run Trials times with
// independent randomness derived from MasterSeed.
type RunConfig struct {
	Graph        *graph.InfluenceGraph
	Approach     estimator.Approach
	SampleNumber int
	SeedSize     int
	Trials       int
	// MasterSeed determines all randomness; trial t uses streams derived from
	// (MasterSeed, t), so any trial can be reproduced in isolation.
	MasterSeed uint64
	// Oracle evaluates the influence of every produced seed set. It must be
	// built on the same influence graph.
	Oracle *Oracle
	// Lazy selects the CELF lazy-greedy variant instead of Algorithm 3.1's
	// exhaustive scan. It changes cost, not output, for submodular
	// estimators.
	Lazy bool
	// Model selects the diffusion model; the zero value is IC as in the
	// paper. When set to LT, the Oracle must also have been built for LT.
	Model diffusion.Model
	// Workers is the goroutine count the trials fan out over: 0 and 1 run
	// them one after another, larger values on that many goroutines,
	// negative values on one per available CPU. Every trial runs the paper's
	// serial estimator on its own stream pair, so the distribution does not
	// depend on Workers. A run with a single goroutine (Workers <= 1, or one
	// trial) passes Workers on to estimator.Config.Workers, where only RIS's
	// Build uses it.
	Workers int
}

// Distribution is the empirical solution distribution S(s) and influence
// distribution I(s) constructed from T trials (Section 4's methodology).
type Distribution struct {
	Approach     estimator.Approach
	SampleNumber int
	SeedSize     int

	Trials []Trial

	// seedSetCounts maps canonical seed-set keys to occurrence counts.
	seedSetCounts map[string]int
}

var errBadRunConfig = errors.New("core: invalid run configuration")

// RunDistribution executes cfg.Trials independent runs of the configured
// approach and collects them into a Distribution, in trial order. The trials
// run on parallel.Resolve(cfg.Workers, cfg.Trials) goroutines; trial t draws
// only from its own streams (runOne), and the graph and the oracle are safe
// for concurrent use, so the result is the same at every worker count. When
// trials fail, the error of the lowest-index failing trial is returned.
func RunDistribution(cfg RunConfig) (*Distribution, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", errBadRunConfig)
	}
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("%w: nil oracle", errBadRunConfig)
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("%w: trials = %d", errBadRunConfig, cfg.Trials)
	}
	if cfg.SeedSize < 1 || cfg.SeedSize > cfg.Graph.NumVertices() {
		return nil, fmt.Errorf("%w: seed size %d with n = %d", errBadRunConfig, cfg.SeedSize, cfg.Graph.NumVertices())
	}
	if cfg.SampleNumber < 1 {
		return nil, fmt.Errorf("%w: sample number %d", errBadRunConfig, cfg.SampleNumber)
	}
	slots := parallel.Resolve(cfg.Workers, cfg.Trials)
	estWorkers := cfg.Workers
	if slots > 1 {
		estWorkers = 1
	}
	trials := make([]Trial, cfg.Trials)
	errs := make([]error, cfg.Trials)
	parallel.For(slots, cfg.Trials, func(_, t int) {
		trials[t], errs[t] = runOne(cfg, uint64(t), estWorkers)
	})
	d := &Distribution{
		Approach:      cfg.Approach,
		SampleNumber:  cfg.SampleNumber,
		SeedSize:      cfg.SeedSize,
		Trials:        trials,
		seedSetCounts: make(map[string]int),
	}
	for t, trial := range trials {
		if errs[t] != nil {
			return nil, errs[t]
		}
		d.seedSetCounts[seedSetKey(trial.Seeds)]++
	}
	return d, nil
}

// runOne executes a single trial with randomness derived from (MasterSeed, t),
// building its estimator at the given worker count.
func runOne(cfg RunConfig, trialIndex uint64, workers int) (Trial, error) {
	// Two independent streams per trial: one for the estimator's sampling and
	// one for the greedy tie-break shuffle (Section 4.1 seeds a fresh PRNG
	// state per run).
	estSrc := rng.Split(rng.Xoshiro, cfg.MasterSeed, trialIndex*2)
	shuffleSrc := rng.Split(rng.Xoshiro, cfg.MasterSeed, trialIndex*2+1)

	est, err := estimator.New(cfg.Approach, estimator.Config{
		Graph:        cfg.Graph,
		SampleNumber: cfg.SampleNumber,
		Source:       estSrc,
		Model:        cfg.Model,
		Workers:      workers,
	})
	if err != nil {
		return Trial{}, err
	}
	var seeds []graph.VertexID
	if cfg.Lazy {
		seeds, err = greedy.RunLazy(est, cfg.Graph.NumVertices(), cfg.SeedSize, shuffleSrc)
	} else {
		seeds, err = greedy.Run(est, cfg.Graph.NumVertices(), cfg.SeedSize, shuffleSrc)
	}
	if err != nil {
		return Trial{}, err
	}
	inf, err := cfg.Oracle.Influence(seeds)
	if err != nil {
		return Trial{}, err
	}
	return Trial{
		Seeds:     seeds,
		Influence: inf,
		Cost:      est.Cost(),
	}, nil
}

// seedSetKey canonicalizes a seed set (order-insensitive) into a map key.
func seedSetKey(seeds []graph.VertexID) string {
	sorted := append([]graph.VertexID(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	for i, v := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// Entropy returns the Shannon entropy (bits) of the empirical seed-set
// distribution.
func (d *Distribution) Entropy() float64 { return stats.Entropy(d.seedSetCounts) }

// DistinctSeedSets returns the number of distinct seed sets observed.
func (d *Distribution) DistinctSeedSets() int { return len(d.seedSetCounts) }

// ModalSeedSet returns the most frequent seed set (ties broken by the
// lexicographically smallest canonical key) and its frequency.
func (d *Distribution) ModalSeedSet() ([]graph.VertexID, int) {
	bestKey := ""
	bestCount := -1
	for key, count := range d.seedSetCounts {
		if count > bestCount || (count == bestCount && key < bestKey) {
			bestKey, bestCount = key, count
		}
	}
	if bestCount < 0 {
		return nil, 0
	}
	return parseSeedSetKey(bestKey), bestCount
}

func parseSeedSetKey(key string) []graph.VertexID {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, ",")
	seeds := make([]graph.VertexID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			continue
		}
		seeds = append(seeds, graph.VertexID(v))
	}
	return seeds
}

// Influences returns the influence spread of every trial, in trial order.
func (d *Distribution) Influences() []float64 {
	out := make([]float64, len(d.Trials))
	for i, t := range d.Trials {
		out[i] = t.Influence
	}
	return out
}

// MeanInfluence returns the mean of the influence distribution; the paper
// uses the mean as the dominant quality measure (Section 5.2.3, Figure 6).
func (d *Distribution) MeanInfluence() float64 { return stats.Mean(d.Influences()) }

// BoxPlot returns the notched-box-plot summary of the influence distribution
// (the quantities plotted in Figure 4).
func (d *Distribution) BoxPlot() stats.BoxPlot { return stats.NewBoxPlot(d.Influences()) }

// QuantileFraction returns the fraction of trials whose influence is at least
// the given threshold, the quantity behind Table 5's "near-optimal with
// probability 99%".
func (d *Distribution) QuantileFraction(threshold float64) float64 {
	if len(d.Trials) == 0 {
		return 0
	}
	count := 0
	for _, t := range d.Trials {
		if t.Influence >= threshold {
			count++
		}
	}
	return float64(count) / float64(len(d.Trials))
}

// MeanCost returns the per-trial average of each cost counter.
func (d *Distribution) MeanCost() MeanCost {
	if len(d.Trials) == 0 {
		return MeanCost{}
	}
	var sum MeanCost
	for _, t := range d.Trials {
		sum.VerticesExamined += float64(t.Cost.VerticesExamined)
		sum.EdgesExamined += float64(t.Cost.EdgesExamined)
		sum.SampleVertices += float64(t.Cost.SampleVertices)
		sum.SampleEdges += float64(t.Cost.SampleEdges)
	}
	inv := 1.0 / float64(len(d.Trials))
	sum.VerticesExamined *= inv
	sum.EdgesExamined *= inv
	sum.SampleVertices *= inv
	sum.SampleEdges *= inv
	return sum
}

// MeanCost is the per-trial average of the Cost counters, kept as floats
// because Table 8 reports fractional averages.
type MeanCost struct {
	VerticesExamined float64
	EdgesExamined    float64
	SampleVertices   float64
	SampleEdges      float64
}

// Traversal returns the mean total traversal cost (vertices + edges).
func (m MeanCost) Traversal() float64 { return m.VerticesExamined + m.EdgesExamined }

// SampleSize returns the mean total sample size (vertices + edges stored).
func (m MeanCost) SampleSize() float64 { return m.SampleVertices + m.SampleEdges }

// Sweep runs RunDistribution for every sample number in levels, reusing the
// same graph, oracle, seed size and trial count, and returns the resulting
// distributions in level order. The master seed is varied per level so that
// levels are independent.
func Sweep(base RunConfig, levels []int) ([]*Distribution, error) {
	out := make([]*Distribution, 0, len(levels))
	for i, s := range levels {
		cfg := base
		cfg.SampleNumber = s
		cfg.MasterSeed = base.MasterSeed + uint64(i)*1_000_003
		d, err := RunDistribution(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at sample number %d: %w", s, err)
		}
		out = append(out, d)
	}
	return out, nil
}
