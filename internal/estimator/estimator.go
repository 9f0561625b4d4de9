// Package estimator implements the paper's unified greedy framework
// procedures Build / Estimate / Update (Algorithm 3.1) for the three
// algorithmic approaches: Oneshot (Algorithm 3.2), Snapshot (Algorithm 3.3,
// including the H(i) graph-reduction Update) and Reverse Influence Sampling
// (Algorithm 3.4). Every estimator accounts for the traversal cost and sample
// size it incurs, which is how the paper measures efficiency.
package estimator

import (
	"errors"
	"fmt"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// Approach identifies one of the three algorithmic approaches.
type Approach int

const (
	// Oneshot runs Monte-Carlo simulations on the spot whenever an estimate
	// is needed; its sample number β is the number of simulations.
	Oneshot Approach = iota
	// Snapshot pre-samples live-edge random graphs in Build and shares them
	// across the greedy run; its sample number τ is the number of graphs.
	Snapshot
	// RIS pre-samples reverse-reachable sets in Build and reduces seed
	// selection to maximum coverage; its sample number θ is the number of
	// RR sets.
	RIS
)

// ErrUnknownApproach reports an unrecognised approach name or value.
var ErrUnknownApproach = errors.New("estimator: unknown approach")

// String returns the approach name as used in the paper.
func (a Approach) String() string {
	switch a {
	case Oneshot:
		return "Oneshot"
	case Snapshot:
		return "Snapshot"
	case RIS:
		return "RIS"
	default:
		return "unknown"
	}
}

// ParseApproach converts a case-exact approach name into an Approach.
func ParseApproach(s string) (Approach, error) {
	switch s {
	case "Oneshot", "oneshot":
		return Oneshot, nil
	case "Snapshot", "snapshot":
		return Snapshot, nil
	case "RIS", "ris":
		return RIS, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownApproach, s)
	}
}

// All returns the three approaches in the order the paper lists them.
func All() []Approach { return []Approach{Oneshot, Snapshot, RIS} }

// SampleSymbol returns the symbol the paper uses for the approach's sample
// number: β for Oneshot, τ for Snapshot, θ for RIS.
func (a Approach) SampleSymbol() string {
	switch a {
	case Oneshot:
		return "beta"
	case Snapshot:
		return "tau"
	case RIS:
		return "theta"
	default:
		return "s"
	}
}

// Estimator is the influence estimator abstraction of Algorithm 3.1. A fresh
// Estimator starts with an empty seed set; Estimate reports the (marginal)
// influence of adding one more vertex and Update commits a chosen seed.
//
// Estimators are not safe for concurrent use.
type Estimator interface {
	// Approach returns which of the three approaches this estimator
	// implements.
	Approach() Approach
	// SampleNumber returns the sample number the estimator was built with
	// (β, τ or θ).
	SampleNumber() int
	// Estimate returns an estimate used to rank vertex v as the next seed:
	// Oneshot returns an estimate of Inf(S+v); Snapshot and RIS return an
	// estimate of the marginal influence Inf(S+v) − Inf(S). Greedy seed
	// selection is identical under either convention (Section 3.2).
	Estimate(v graph.VertexID) float64
	// Update commits v as the next seed, so subsequent Estimate calls are
	// relative to the enlarged seed set.
	Update(v graph.VertexID)
	// Seeds returns the committed seed set in selection order. The returned
	// slice must not be modified.
	Seeds() []graph.VertexID
	// Cost returns the traversal cost and sample size accumulated so far
	// (building included).
	Cost() diffusion.Cost
}

// Config carries the inputs common to all estimator constructions.
type Config struct {
	// Graph is the influence graph to operate on.
	Graph *graph.InfluenceGraph
	// SampleNumber is β, τ or θ depending on the approach. It must be >= 1.
	SampleNumber int
	// Source provides the randomness for the estimator. Oneshot and Snapshot
	// draw every random number from it in sequence, as the paper's
	// Algorithms 3.2 and 3.3 do. RIS takes one base seed from it and draws
	// RR set i from its own stream i (rng.Splitter), collapsing the paper's
	// two-PRNG discipline onto per-set streams.
	Source rng.Source
	// Model selects the diffusion model; the zero value is the Independent
	// Cascade model used throughout the paper. Under the Linear Threshold
	// model the graph's edge probabilities are interpreted as LT weights and
	// must sum to at most 1 over each vertex's in-edges.
	Model diffusion.Model
	// Workers is the goroutine count of RIS's Build: 0 and 1 draw the θ RR
	// sets on the calling goroutine, larger values on that many goroutines,
	// negative values on one per available CPU. The RR pool does not depend
	// on it, and Oneshot and Snapshot ignore it, so no estimate or cost
	// depends on Workers.
	Workers int
}

// simulator abstracts forward Monte-Carlo simulation over diffusion models
// (diffusion.Simulator for IC, diffusion.LTSimulator for LT).
type simulator interface {
	EstimateInfluence(seeds []graph.VertexID, count int, src rng.Source, cost *diffusion.Cost) float64
}

func newSimulator(cfg Config) simulator {
	if cfg.Model == diffusion.LT {
		return diffusion.NewLTSimulator(cfg.Graph)
	}
	return diffusion.NewSimulator(cfg.Graph)
}

func sampleSnapshot(cfg Config, src rng.Source, cost *diffusion.Cost) *diffusion.Snapshot {
	if cfg.Model == diffusion.LT {
		return diffusion.SampleLTSnapshot(cfg.Graph, src, cost)
	}
	return diffusion.SampleSnapshot(cfg.Graph, src, cost)
}

// New builds an estimator of the requested approach. Building a Snapshot or
// RIS estimator performs the sampling work of the paper's Build procedure and
// charges it to the estimator's cost; building a Oneshot estimator does
// nothing beyond allocation.
func New(a Approach, cfg Config) (Estimator, error) {
	if cfg.Graph == nil {
		return nil, errors.New("estimator: nil influence graph")
	}
	if cfg.SampleNumber < 1 {
		return nil, fmt.Errorf("estimator: sample number must be >= 1, got %d", cfg.SampleNumber)
	}
	if cfg.Source == nil {
		return nil, errors.New("estimator: nil random source")
	}
	if cfg.Model == diffusion.LT {
		if err := diffusion.ValidateLTWeights(cfg.Graph); err != nil {
			return nil, err
		}
	}
	switch a {
	case Oneshot:
		return newOneshot(cfg), nil
	case Snapshot:
		return newSnapshot(cfg), nil
	case RIS:
		return newRIS(cfg), nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownApproach, int(a))
	}
}
