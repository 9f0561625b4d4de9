package diffusion

import (
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// ReverseSampler draws reverse-reachable sets under one diffusion model. Its
// implementations own scratch buffers, so one ReverseSampler must not be
// shared between goroutines.
type ReverseSampler interface {
	Sample(targetSrc, edgeSrc rng.Source, cost *Cost) []graph.VertexID
}

// NewReverseSampler returns the RR-set sampler of model over ig: an
// LTRRSampler for LT, an RRSampler for IC.
func NewReverseSampler(ig *graph.InfluenceGraph, model Model) ReverseSampler {
	if model == LT {
		return NewLTRRSampler(ig)
	}
	return NewRRSampler(ig)
}

// RRSampler generates reverse-reachable (RR) sets: for a random target z, the
// set of vertices that can reach z in a live-edge graph G ~ G (Definition
// 3.1). Generation is by reverse breadth-first search with lazy coin flips on
// incoming edges, the standard technique of Borgs et al. and IMM.
//
// An RRSampler owns scratch buffers and must not be shared between
// goroutines.
type RRSampler struct {
	g *graph.InfluenceGraph

	visited []uint32
	epoch   uint32
	queue   []graph.VertexID
}

// NewRRSampler returns an RRSampler for ig.
func NewRRSampler(ig *graph.InfluenceGraph) *RRSampler {
	return &RRSampler{
		g:       ig,
		visited: make([]uint32, ig.NumVertices()),
		queue:   make([]graph.VertexID, 0, 64),
	}
}

// Sample generates one RR set for a uniformly random target. Per §4.1 two
// random streams are used: targetSrc chooses the target vertex and edgeSrc
// supplies one uniform per examined incoming edge. The returned slice is
// freshly allocated and owned by the caller.
//
// Traversal cost: one vertex examination per vertex added to the RR set and
// one edge examination per incoming edge scanned (the weight w(R) of the
// paper is the sum of in-degrees of the RR set's members, which is exactly
// the number of scanned incoming edges). Sample size: the vertices stored.
func (r *RRSampler) Sample(targetSrc, edgeSrc rng.Source, cost *Cost) []graph.VertexID {
	n := r.g.NumVertices()
	if n == 0 {
		return nil
	}
	target := graph.VertexID(targetSrc.Intn(n))
	return r.SampleFor(target, edgeSrc, cost)
}

// SampleFor generates one RR set for the given target vertex.
func (r *RRSampler) SampleFor(target graph.VertexID, edgeSrc rng.Source, cost *Cost) []graph.VertexID {
	r.epoch++
	if r.epoch == 0 {
		for i := range r.visited {
			r.visited[i] = 0
		}
		r.epoch = 1
	}
	r.queue = r.queue[:0]
	r.visited[target] = r.epoch
	r.queue = append(r.queue, target)

	var verticesExamined, edgesExamined int64
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		verticesExamined++
		neighbors := r.g.InNeighbors(v)
		probs := r.g.InProbabilities(v)
		for i, u := range neighbors {
			edgesExamined++
			if r.visited[u] == r.epoch {
				continue
			}
			if edgeSrc.Float64() < probs[i] {
				r.visited[u] = r.epoch
				r.queue = append(r.queue, u)
			}
		}
	}
	set := make([]graph.VertexID, len(r.queue))
	copy(set, r.queue)
	if cost != nil {
		cost.VerticesExamined += verticesExamined
		cost.EdgesExamined += edgesExamined
		cost.SampleVertices += int64(len(set))
	}
	return set
}
