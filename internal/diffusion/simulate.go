package diffusion

import (
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// Simulator runs forward IC Monte-Carlo simulations on an influence graph.
// It owns the scratch buffers needed by a single goroutine, so one Simulator
// must not be shared between goroutines.
type Simulator struct {
	g *graph.InfluenceGraph

	// visited holds an epoch per vertex; a vertex is active in the current
	// simulation iff visited[v] == epoch. Epochs avoid clearing the whole
	// slice between simulations.
	visited []uint32
	epoch   uint32
	queue   []graph.VertexID
}

// NewSimulator returns a Simulator for g.
func NewSimulator(g *graph.InfluenceGraph) *Simulator {
	return &Simulator{
		g:       g,
		visited: make([]uint32, g.NumVertices()),
		queue:   make([]graph.VertexID, 0, 64),
	}
}

// Run performs one forward IC simulation from the given seed set and returns
// the number of activated vertices (including the seeds themselves, with
// duplicate seeds counted once). Each examined edge into a vertex not yet
// active consumes one uniform random number from src, in scan order, matching
// the Oneshot PRNG discipline of §4.1; an edge into an active vertex draws
// none.
// Traversal cost is accumulated into cost when non-nil: every activated
// vertex is one vertex examination and every outgoing edge of an activated
// vertex is one edge examination.
func (s *Simulator) Run(seeds []graph.VertexID, src rng.Source, cost *Cost) int {
	s.epoch++
	if s.epoch == 0 { // wrapped around: clear and restart epochs
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	activated := 0
	for _, v := range seeds {
		if s.visited[v] == s.epoch {
			continue
		}
		s.visited[v] = s.epoch
		s.queue = append(s.queue, v)
		activated++
	}
	var verticesExamined, edgesExamined int64
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		verticesExamined++
		neighbors := s.g.OutNeighbors(v)
		probs := s.g.OutProbabilities(v)
		for i, w := range neighbors {
			edgesExamined++
			if s.visited[w] == s.epoch {
				// Already active; the activation trial is still performed in
				// the process definition but cannot change the outcome, and
				// the naive implementation skips the coin toss.
				continue
			}
			if src.Float64() < probs[i] {
				s.visited[w] = s.epoch
				s.queue = append(s.queue, w)
				activated++
			}
		}
	}
	if cost != nil {
		cost.VerticesExamined += verticesExamined
		cost.EdgesExamined += edgesExamined
	}
	return activated
}

// EstimateInfluence runs count simulations from seeds and returns the average
// number of activated vertices, the Monte-Carlo estimate of Inf(seeds).
func (s *Simulator) EstimateInfluence(seeds []graph.VertexID, count int, src rng.Source, cost *Cost) float64 {
	if count <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < count; i++ {
		total += s.Run(seeds, src, cost)
	}
	return float64(total) / float64(count)
}
