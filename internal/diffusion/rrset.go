package diffusion

import (
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// ReverseSampler draws reverse-reachable sets under one diffusion model. Its
// implementations own scratch buffers, so one ReverseSampler must not be
// shared between goroutines.
//
// Sample may read edgeSrc in blocks and drop what a set leaves of its last
// block (the IC sampler reads up to 64 values at a time), so it expects a
// fresh stream per set, as every caller gives it. A caller that reuses one
// stream across sets still gets valid RR sets, from a different coin
// sequence.
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

// coinBlock holds the next draws of one RR set's edge stream. Reading values
// in blocks keeps the per-coin cost out of an interface call: a xoshiro
// stream refills through Fill, any other Source through Uint64. A set's
// blocks hold 8, 16, 32 and then 64 values, so a set that flips a few coins
// does not pay for 64 draws, and no set draws more than twice its coins plus
// 8 values. A block fills the end of vals, so it is spent when the read index
// reaches len(vals) whatever its size.
type coinBlock struct {
	src  rng.Source
	xo   *rng.Xoshiro256
	vals [64]uint64
	size int // values in the current block, 0 before the set's first refill
}

// reset points the block at a new stream; the set's first scanned in-edge
// refills it.
func (c *coinBlock) reset(src rng.Source) {
	c.src = src
	c.xo, _ = src.(*rng.Xoshiro256)
	c.size = 0
}

// refill puts the stream's next values at the end of vals, twice as many as
// the last block held, between 8 and len(vals), and returns the index of the
// first.
func (c *coinBlock) refill() int {
	c.size = min(max(2*c.size, 8), len(c.vals))
	start := len(c.vals) - c.size
	if c.xo != nil {
		c.xo.Fill(c.vals[start:])
		return start
	}
	for i := start; i < len(c.vals); i++ {
		c.vals[i] = c.src.Uint64()
	}
	return start
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
	// queue holds the set in BFS order. It has n+1 slots because every
	// scanned in-edge writes its tail to the slot after the set, whether or
	// not the tail joins.
	queue []graph.VertexID
	coins coinBlock
}

// NewRRSampler returns an RRSampler for ig.
func NewRRSampler(ig *graph.InfluenceGraph) *RRSampler {
	return &RRSampler{
		g:       ig,
		visited: make([]uint32, ig.NumVertices()),
		queue:   make([]graph.VertexID, ig.NumVertices()+1),
	}
}

// Sample generates one RR set for a uniformly random target. Per §4.1 two
// random streams are used: targetSrc chooses the target vertex and edgeSrc
// supplies one uniform per coin flipped, that is per scanned incoming edge
// whose tail is not yet in the set. It reads edgeSrc in blocks (see
// ReverseSampler). The returned slice is freshly allocated and owned by the
// caller.
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

// SampleFor generates one RR set for the given target vertex, reading
// edgeSrc in blocks (see ReverseSampler).
//
// The scan of an edge takes no branch on its coin or on whether its tail is
// already in the set; both tests are bits that the updates of the visited
// stamp, the queue end and the coin index are computed from. The coin is
// rng.Below against the edge's threshold, which is exactly Float64() < p. An
// edge into a vertex already in the set flips no coin, so the k-th edge that
// flips one gets the k-th value of the stream, as it would drawing Float64 at
// the edge. Every set, and its cost, is therefore the one a per-coin loop
// draws from the same stream.
func (r *RRSampler) SampleFor(target graph.VertexID, edgeSrc rng.Source, cost *Cost) []graph.VertexID {
	r.epoch++
	if r.epoch == 0 {
		for i := range r.visited {
			r.visited[i] = 0
		}
		r.epoch = 1
	}
	r.coins.reset(edgeSrc)
	epoch, visited, queue := r.epoch, r.visited, r.queue
	vals, used := &r.coins.vals, len(r.coins.vals) // the first scanned in-edge refills the block
	visited[target] = epoch
	queue[0] = target
	end := 1
	var edgesExamined int64
	for head := 0; head < end; head++ {
		v := queue[head]
		tails, thr := r.g.InNeighbors(v), r.g.InThresholds(v)
		thr = thr[:len(tails)] // equal lengths; lets the compiler drop the check on thr[i]
		edgesExamined += int64(len(tails))
		for i, u := range tails {
			if used == len(vals) {
				used = r.coins.refill()
			}
			// used is below 64 here; the mask only drops the bounds check.
			live := rng.Below(vals[used&63], thr[i])
			x := visited[uint32(u)] ^ epoch
			fresh := (uint64(x) + 0xFFFFFFFF) >> 32 // 1 when u is not in the set
			take := fresh & live
			queue[end] = u
			end += int(take)
			used += int(fresh)
			visited[uint32(u)] = epoch ^ (x & (uint32(take) - 1))
		}
	}
	set := make([]graph.VertexID, end)
	copy(set, queue[:end])
	if cost != nil {
		cost.VerticesExamined += int64(end)
		cost.EdgesExamined += edgesExamined
		cost.SampleVertices += int64(end)
	}
	return set
}
