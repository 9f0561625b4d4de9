package estimator

import (
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// snapshotEstimator implements Algorithm 3.3: Build samples τ live-edge
// graphs G(1..τ); Estimate returns the average marginal reachability
// (1/τ)·Σ_i [r_{G(i)}(S+v) − r_{G(i)}(S)]; Update applies the graph-reduction
// technique of Section 3.4.3, permanently marking the vertices reachable from
// the new seed as covered so later estimates traverse only the reduced
// subgraphs H(i). Because the snapshots are fixed, the estimator is monotone
// and submodular.
type snapshotEstimator struct {
	cfg       Config
	snapshots []*diffusion.Snapshot
	// covered[i] is a bitset over vertices: bit v is set when v is reachable
	// from the current seed set in snapshot i, i.e. v has been removed from
	// the reduced subgraph H(i).
	covered [][]uint64

	seeds []graph.VertexID

	// BFS scratch shared by Estimate/Update across snapshots.
	visited []uint32
	epoch   uint32
	queue   []graph.VertexID

	cost diffusion.Cost
}

func newSnapshot(cfg Config) *snapshotEstimator {
	n := cfg.Graph.NumVertices()
	words := (n + 63) / 64
	s := &snapshotEstimator{
		cfg:       cfg,
		snapshots: make([]*diffusion.Snapshot, cfg.SampleNumber),
		covered:   make([][]uint64, cfg.SampleNumber),
		visited:   make([]uint32, n),
		queue:     make([]graph.VertexID, 0, 64),
	}
	// Build: generate τ random graphs from G (Algorithm 3.3 line 2), drawing
	// from the source in sequence. Under the LT model the random graphs come
	// from the at-most-one-in-edge live-edge characterization instead of
	// independent edge coins.
	for i := 0; i < cfg.SampleNumber; i++ {
		s.snapshots[i] = sampleSnapshot(cfg, cfg.Source, &s.cost)
		s.covered[i] = make([]uint64, words)
	}
	return s
}

func (s *snapshotEstimator) Approach() Approach { return Snapshot }

func (s *snapshotEstimator) SampleNumber() int { return s.cfg.SampleNumber }

func (s *snapshotEstimator) isCovered(i int, v graph.VertexID) bool {
	return s.covered[i][v>>6]&(1<<(uint(v)&63)) != 0
}

func (s *snapshotEstimator) setCovered(i int, v graph.VertexID) {
	s.covered[i][v>>6] |= 1 << (uint(v) & 63)
}

func (s *snapshotEstimator) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for j := range s.visited {
			s.visited[j] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// Estimate returns the average over snapshots of the number of vertices
// reachable from v that are not already reachable from the current seed set.
func (s *snapshotEstimator) Estimate(v graph.VertexID) float64 {
	total := 0
	seed := []graph.VertexID{v}
	for i, snap := range s.snapshots {
		epoch := s.nextEpoch()
		blocked := func(w graph.VertexID) bool { return s.isCovered(i, w) }
		total += snap.Reachable(seed, blocked, nil, s.visited, epoch, s.queue, &s.cost)
	}
	return float64(total) / float64(len(s.snapshots))
}

// Update marks, in every snapshot, the vertices reachable from the new seed
// as covered, reducing the subgraph traversed by subsequent estimates.
func (s *snapshotEstimator) Update(v graph.VertexID) {
	seed := []graph.VertexID{v}
	for i, snap := range s.snapshots {
		epoch := s.nextEpoch()
		blocked := func(w graph.VertexID) bool { return s.isCovered(i, w) }
		visit := func(w graph.VertexID) { s.setCovered(i, w) }
		snap.Reachable(seed, blocked, visit, s.visited, epoch, s.queue, &s.cost)
	}
	s.seeds = append(s.seeds, v)
}

func (s *snapshotEstimator) Seeds() []graph.VertexID { return s.seeds }

func (s *snapshotEstimator) Cost() diffusion.Cost { return s.cost }
