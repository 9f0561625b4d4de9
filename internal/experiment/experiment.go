// Package experiment provides the harness that regenerates every table and
// figure of the paper's evaluation section. Each experiment is identified by
// an ID (table3 … table9, fig1 … fig8), prints the same rows or series the
// paper reports, and scales its workload with a preset so that the same code
// path runs in seconds (unit), minutes (small) or at the paper's full scale
// (paper).
package experiment

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// Preset selects the experiment scale.
type Preset string

const (
	// Unit is the CI-fast preset: few trials, small sample numbers, small
	// oracles; it exists so the whole harness is exercised by `go test`.
	Unit Preset = "unit"
	// Small is the default preset: hundreds of trials and sample numbers up
	// to 2^14 (Oneshot/Snapshot) / 2^18 (RIS); minutes of compute per
	// experiment.
	Small Preset = "small"
	// Paper is the paper's full protocol: T = 1,000 trials, sample numbers up
	// to 2^16 / 2^24 and a 10^7-RR-set oracle. Hours to days of compute.
	Paper Preset = "paper"
)

// ErrUnknownPreset reports an unrecognised preset name.
var ErrUnknownPreset = errors.New("experiment: unknown preset")

// ErrUnknownExperiment reports an unknown experiment ID.
var ErrUnknownExperiment = errors.New("experiment: unknown experiment")

// Scale holds the numeric knobs derived from a preset.
type Scale struct {
	Preset Preset
	// Trials is T for small instances; TrialsLarge is T for the ⋆-marked
	// large instances (the paper uses 1,000 and 20).
	Trials      int
	TrialsLarge int
	// MaxExpSim bounds the Oneshot/Snapshot sample-number sweep at 2^MaxExpSim.
	MaxExpSim int
	// MaxExpRIS bounds the RIS sample-number sweep at 2^MaxExpRIS.
	MaxExpRIS int
	// OracleSets is the number of RR sets backing the shared influence oracle.
	OracleSets int
	// DatasetScaleDivisor shrinks the web-scale surrogates (see data.Options).
	DatasetScaleDivisor int
}

// ScaleFor maps a preset to its knobs.
func ScaleFor(p Preset) (Scale, error) {
	switch p {
	case Unit:
		return Scale{
			Preset: Unit, Trials: 24, TrialsLarge: 6,
			MaxExpSim: 6, MaxExpRIS: 10,
			OracleSets: 20000, DatasetScaleDivisor: 512,
		}, nil
	case Small:
		return Scale{
			Preset: Small, Trials: 200, TrialsLarge: 20,
			MaxExpSim: 14, MaxExpRIS: 18,
			OracleSets: 200000, DatasetScaleDivisor: 64,
		}, nil
	case Paper:
		return Scale{
			Preset: Paper, Trials: 1000, TrialsLarge: 20,
			MaxExpSim: 16, MaxExpRIS: 24,
			OracleSets: 10_000_000, DatasetScaleDivisor: 1,
		}, nil
	default:
		return Scale{}, fmt.Errorf("%w: %q", ErrUnknownPreset, p)
	}
}

// Env carries the scale, the master seed and caches of influence graphs and
// oracles shared by experiments so that repeated experiments on the same
// workload do not rebuild them.
type Env struct {
	Scale      Scale
	MasterSeed uint64
	// Workers is the goroutine count forwarded to every study
	// (core.RunConfig.Workers, which fans trials out), oracle build and
	// estimator build the experiments perform; negative values use every
	// CPU. It changes speed only: every experiment prints the same bytes at
	// every worker count.
	Workers int

	graphs  map[string]*graph.InfluenceGraph
	oracles map[string]*core.Oracle
}

// NewEnv builds an environment for the given preset with the default master
// seed used throughout the reproduction.
func NewEnv(p Preset) (*Env, error) {
	s, err := ScaleFor(p)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale:      s,
		MasterSeed: 20200614,
		graphs:     make(map[string]*graph.InfluenceGraph),
		oracles:    make(map[string]*core.Oracle),
	}, nil
}

// InfluenceGraph returns the cached influence graph for (dataset, model),
// materializing it on first use.
func (e *Env) InfluenceGraph(ds data.Dataset, m workload.Model) (*graph.InfluenceGraph, error) {
	key := string(ds) + "/" + m.String()
	if ig, ok := e.graphs[key]; ok {
		return ig, nil
	}
	g, err := data.Load(ds, data.Options{Seed: e.MasterSeed, ScaleDivisor: e.Scale.DatasetScaleDivisor})
	if err != nil {
		return nil, err
	}
	ig, err := workload.Assign(g, m, rng.Split(rng.Xoshiro, e.MasterSeed, 7777))
	if err != nil {
		return nil, err
	}
	e.graphs[key] = ig
	return ig, nil
}

// Oracle returns the cached shared influence oracle for (dataset, model).
func (e *Env) Oracle(ds data.Dataset, m workload.Model) (*core.Oracle, error) {
	key := string(ds) + "/" + m.String()
	if o, ok := e.oracles[key]; ok {
		return o, nil
	}
	ig, err := e.InfluenceGraph(ds, m)
	if err != nil {
		return nil, err
	}
	sets := e.Scale.OracleSets
	// Cap the oracle's total stored vertices on larger graphs so the unit and
	// small presets stay within memory; the paper preset keeps the full 10^7.
	if e.Scale.Preset != Paper && ig.NumVertices() > 100000 {
		sets = sets / 10
		if sets < 1000 {
			sets = 1000
		}
	}
	o, err := core.NewOracleParallel(ig, diffusion.IC, sets, e.Workers, rng.Split(rng.Xoshiro, e.MasterSeed, 991))
	if err != nil {
		return nil, err
	}
	e.oracles[key] = o
	return o, nil
}

// Experiment is one regenerable artefact of the paper.
type Experiment struct {
	// ID is the identifier accepted by cmd/imexp and the benchmarks.
	ID string
	// Title is a one-line human description.
	Title string
	// Artefact names the paper table or figure the experiment regenerates.
	Artefact string
	// Run executes the experiment, writing rows to w.
	Run func(w io.Writer, env *Env) error
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table3", Title: "Network statistics", Artefact: "Table 3", Run: runTable3},
		{ID: "table4", Title: "Top three single-vertex influence spreads", Artefact: "Table 4", Run: runTable4},
		{ID: "table5", Title: "Least sample number for near-optimal solutions", Artefact: "Table 5", Run: runTable5},
		{ID: "table6", Title: "Median comparable number ratio of Oneshot to Snapshot", Artefact: "Table 6", Run: runTable6},
		{ID: "table7", Title: "Median comparable number and size ratio of RIS to Snapshot", Artefact: "Table 7", Run: runTable7},
		{ID: "table8", Title: "Traversal cost at k=1 and sample number 1", Artefact: "Table 8", Run: runTable8},
		{ID: "table9", Title: "Traversal cost at identical accuracy", Artefact: "Table 9", Run: runTable9},
		{ID: "fig1", Title: "Entropy of seed-set distributions on Karate (uc0.1)", Artefact: "Figure 1", Run: runFig1},
		{ID: "fig2", Title: "Entropy plateaus caused by near-ties", Artefact: "Figure 2", Run: runFig2},
		{ID: "fig3", Title: "Entropy decay by edge-probability setting (RIS)", Artefact: "Figure 3", Run: runFig3},
		{ID: "fig4", Title: "Influence distributions as box plots", Artefact: "Figure 4", Run: runFig4},
		{ID: "fig5", Title: "Quick vs slow influence convergence (RIS)", Artefact: "Figure 5", Run: runFig5},
		{ID: "fig6", Title: "Mean vs standard deviation / 1st percentile", Artefact: "Figure 6", Run: runFig6},
		{ID: "fig7", Title: "Comparable number ratio of Oneshot to Snapshot", Artefact: "Figure 7", Run: runFig7},
		{ID: "fig8", Title: "Comparable size ratio of RIS to Snapshot", Artefact: "Figure 8", Run: runFig8},
		{ID: "exactcheck", Title: "Estimator cross-validation against exact influence", Artefact: "validation", Run: runExactCheck},
		{ID: "heuristics", Title: "Quality of Section 3.6 heuristics vs the three approaches", Artefact: "validation", Run: runHeuristics},
	}
}

// IDs returns the registry IDs in order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment with the given ID.
func Run(w io.Writer, id string, env *Env) error {
	e, ok := Lookup(id)
	if !ok {
		known := IDs()
		sort.Strings(known)
		return fmt.Errorf("%w: %q (known: %v)", ErrUnknownExperiment, id, known)
	}
	if _, err := fmt.Fprintf(w, "# %s — %s (%s) [preset=%s]\n", e.ID, e.Title, e.Artefact, env.Scale.Preset); err != nil {
		return err
	}
	return e.Run(w, env)
}
