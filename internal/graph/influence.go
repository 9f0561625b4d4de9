package graph

import (
	"errors"
	"fmt"

	"imdist/internal/rng"
)

// ErrProbabilityRange reports an edge probability outside (0, 1].
var ErrProbabilityRange = errors.New("graph: edge probability out of range (0,1]")

// InfluenceGraph is a directed graph together with an influence probability
// p(e) in (0, 1] for every edge e, i.e. the triple G = (V, E, p) of the paper.
// Probabilities are stored aligned with both CSR directions so that forward
// simulation (Oneshot/Snapshot) and reverse simulation (RIS) can both read
// them without indirection.
type InfluenceGraph struct {
	*Graph

	// outProb[i] is the probability of the edge stored at outAdj[i].
	outProb []float64
	// inProb[i] is the probability of the edge stored at inAdj[i].
	inProb []float64
	// inThr[i] is rng.Threshold(inProb[i]), the integer form of the edge's
	// coin test that reverse sampling reads.
	inThr []uint64

	sumProb float64
}

// NewInfluenceGraph attaches probabilities to g. assign is called once for
// every directed edge (u, v) and must return a value in (0, 1].
func NewInfluenceGraph(g *Graph, assign func(from, to VertexID) float64) (*InfluenceGraph, error) {
	ig := &InfluenceGraph{
		Graph:   g,
		outProb: make([]float64, g.NumEdges()),
		inProb:  make([]float64, g.NumEdges()),
	}
	for v := 0; v < g.n; v++ {
		base := g.outIdx[v]
		for i, w := range g.OutNeighbors(VertexID(v)) {
			p := assign(VertexID(v), w)
			if !(p > 0 && p <= 1) {
				return nil, fmt.Errorf("%w: p(%d,%d)=%v", ErrProbabilityRange, v, w, p)
			}
			ig.outProb[int(base)+i] = p
			ig.sumProb += p
		}
	}
	// Mirror onto the reverse CSR: for the in-edge (u, w) stored at reverse
	// slot i of w, look up p(u, w) in u's forward run. For parallel edges the
	// probabilities may be permuted among the parallel copies, which leaves
	// the diffusion distribution unchanged (each copy is an independent coin
	// with the same bias when assign is a function of the endpoints).
	for w := 0; w < g.n; w++ {
		base := g.inIdx[w]
		for i, u := range g.InNeighbors(VertexID(w)) {
			ig.inProb[int(base)+i] = ig.outProb[forwardSlot(g, u, VertexID(w))]
		}
	}
	ig.inThr = thresholds(ig.inProb)
	return ig, nil
}

// thresholds returns rng.Threshold of every probability in probs.
func thresholds(probs []float64) []uint64 {
	thr := make([]uint64, len(probs))
	for i, p := range probs {
		thr[i] = rng.Threshold(p)
	}
	return thr
}

// forwardSlot returns the index into outProb/outAdj of an edge (u, w).
func forwardSlot(g *Graph, u, w VertexID) int {
	run := g.OutNeighbors(u)
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if run[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(run) || run[lo] != w {
		panic("graph: reverse adjacency inconsistent with forward adjacency")
	}
	return int(g.outIdx[u]) + lo
}

// OutProbabilities returns the probabilities aligned with OutNeighbors(v).
// The returned slice aliases internal storage and must not be modified.
func (ig *InfluenceGraph) OutProbabilities(v VertexID) []float64 {
	return ig.outProb[ig.outIdx[v]:ig.outIdx[v+1]]
}

// InProbabilities returns the probabilities aligned with InNeighbors(v).
// The returned slice aliases internal storage and must not be modified.
func (ig *InfluenceGraph) InProbabilities(v VertexID) []float64 {
	return ig.inProb[ig.inIdx[v]:ig.inIdx[v+1]]
}

// InThresholds returns the coin thresholds aligned with InNeighbors(v):
// rng.Threshold of each in-edge's probability, so that rng.Below(u,
// InThresholds(v)[i]) is the edge's coin under the draw u. The returned slice
// aliases internal storage and must not be modified.
func (ig *InfluenceGraph) InThresholds(v VertexID) []uint64 {
	return ig.inThr[ig.inIdx[v]:ig.inIdx[v+1]]
}

// SumProbabilities returns m̃ = Σ_e p(e), the expected number of live edges in
// a random live-edge graph. The paper uses m̃ both as the Snapshot sample-size
// unit and to explain the traversal-cost ratio m̃/m.
func (ig *InfluenceGraph) SumProbabilities() float64 { return ig.sumProb }

// Transpose returns the influence graph with every edge reversed and the same
// probability attached to the reversed edge (G^T of the paper).
func (ig *InfluenceGraph) Transpose() *InfluenceGraph {
	return &InfluenceGraph{
		Graph:   ig.Graph.Transpose(),
		outProb: append([]float64(nil), ig.inProb...),
		inProb:  append([]float64(nil), ig.outProb...),
		inThr:   thresholds(ig.outProb),
		sumProb: ig.sumProb,
	}
}

// String returns a short description of the influence graph.
func (ig *InfluenceGraph) String() string {
	return fmt.Sprintf("InfluenceGraph(n=%d, m=%d, m~=%.2f)",
		ig.NumVertices(), ig.NumEdges(), ig.SumProbabilities())
}
