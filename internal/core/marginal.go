package core

// The marginal-gain primitive and greedy maximum coverage over it — the RIS
// reduction's solver and the oracle-greedy reference of Section 5.2 — as one
// CELF (lazy greedy) loop. The local oracle runs the loop on its own covered
// state (either kernel); the distributed coordinator (internal/cluster) runs
// it with a fleet-wide scatter of MarginalCoverage as the primitive, so both
// select the same sequence by construction.
//
// Why the lazy loop selects exactly the eager argmax: the heap orders
// candidates by (gain desc, id asc). A stale entry's gain is an upper bound
// on its true gain (submodularity: marginal gains only shrink as the seed set
// grows). So when the heap's top entry is fresh — evaluated against the
// current seed set — every other candidate's true gain is at most the top's
// gain, and any candidate whose stale bound ties it sits below the top only
// if its id is larger. Selecting a fresh top is therefore exactly the
// (max gain, min id) argmax, without re-evaluating the candidates that stay
// buried, and for any batch size.

import (
	"container/heap"

	"imdist/internal/graph"
)

// MarginalFunc is the primitive CELF runs on: it sets gains[i] to the exact
// number of RR sets that contain candidates[i] and no vertex of seeds.
// Across one CELF run, seeds only grows by appending, so an implementation
// may keep covered state between calls.
type MarginalFunc func(seeds, candidates []graph.VertexID, gains []int64) error

// celfEntry is one candidate in the lazy-greedy queue: v's marginal gain as
// of round (computed against the first round selected seeds).
type celfEntry struct {
	gain  int64
	v     graph.VertexID
	round int32
}

// celfHeap orders by gain descending, then vertex id ascending — the eager
// argmax preference.
type celfHeap []celfEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h celfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x any)   { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// CELF selects k vertices by greedy maximum coverage with lazy evaluation.
// initial[v] is vertex v's gain against the empty seed set (its membership
// count), so len(initial) is the vertex count and k is clamped to it. Each
// round, while the heap's top is stale, up to batch stale entries are popped
// and re-evaluated with one marginal call against the seeds selected so far;
// a fresh top is selected. It returns the seeds in selection order and their
// coverage count — the sum of the selected gains, which telescopes to the
// number of RR sets the seed set covers. A marginal error aborts the run and
// is returned as is.
func CELF(k int, initial []int64, batch int, marginal MarginalFunc) ([]graph.VertexID, int64, error) {
	k = min(k, len(initial))
	if k < 1 {
		return nil, 0, nil
	}
	batch = max(batch, 1)
	h := make(celfHeap, len(initial))
	for v, gain := range initial {
		h[v] = celfEntry{gain: gain, v: graph.VertexID(v)}
	}
	heap.Init(&h)

	seeds := make([]graph.VertexID, 0, k)
	var covered int64
	stale := make([]celfEntry, 0, batch)
	candidates := make([]graph.VertexID, 0, batch)
	gains := make([]int64, batch)
	for len(seeds) < k {
		round := int32(len(seeds))
		if h[0].round == round {
			e := heap.Pop(&h).(celfEntry)
			covered += e.gain
			seeds = append(seeds, e.v)
			continue
		}
		stale, candidates = stale[:0], candidates[:0]
		for len(stale) < batch && len(h) > 0 && h[0].round != round {
			e := heap.Pop(&h).(celfEntry)
			stale = append(stale, e)
			candidates = append(candidates, e.v)
		}
		if err := marginal(seeds, candidates, gains[:len(candidates)]); err != nil {
			return nil, 0, err
		}
		for i, e := range stale {
			heap.Push(&h, celfEntry{gain: gains[i], v: e.v, round: round})
		}
	}
	return seeds, covered, nil
}

// coverState is the covered-RR-set state shared by MarginalCoverage and the
// greedy loop: it absorbs seeds one at a time and answers any candidate's
// marginal gain against the seeds absorbed so far. Under the epoch kernel it
// flags covered sets in a []bool through the seeds' member lists; under
// bitpack it ORs the seeds' rows into a covered bitmap and popcounts each
// candidate's row AND NOT covered. Both count the same integers. A coverState
// is pooled per oracle and used by one call at a time.
type coverState struct {
	o     *Oracle
	m     *bitMatrix // nil under the epoch kernel
	sets  []bool     // epoch: covered flag per RR set
	words []uint64   // bitpack: covered bitmap (bitMatrix.cover layout)
	added int        // seeds absorbed so far
}

// getCover borrows an empty coverState for the oracle's current kernel.
func (o *Oracle) getCover() *coverState {
	c, _ := o.coverPool.Get().(*coverState)
	if c == nil {
		c = &coverState{o: o}
	}
	c.added = 0
	c.m = nil
	if o.useBitpack() {
		c.m = o.packedMatrix()
		if w := c.m.coveredWords(); len(c.words) != w {
			c.words = make([]uint64, w)
		} else {
			clear(c.words)
		}
		return c
	}
	if len(c.sets) != o.numSets {
		c.sets = make([]bool, o.numSets)
	} else {
		clear(c.sets)
	}
	return c
}

func (o *Oracle) putCover(c *coverState) { o.coverPool.Put(c) }

// add marks every RR set containing v as covered.
func (c *coverState) add(v graph.VertexID) {
	c.added++
	if c.m != nil {
		c.m.cover(int(v), c.words)
		return
	}
	for _, idx := range c.o.members(v) {
		c.sets[idx] = true
	}
}

// gain counts the RR sets containing v that are not yet covered.
func (c *coverState) gain(v graph.VertexID) int64 {
	if c.m != nil {
		return c.m.uncovered(int(v), c.words)
	}
	var g int64
	for _, idx := range c.o.members(v) {
		if !c.sets[idx] {
			g++
		}
	}
	return g
}

// marginal is the oracle's MarginalFunc for CELF. The loop only ever appends
// to seeds, so each call absorbs just the seeds picked since the last one:
// the covered state grows by one seed per pick and no RR set is re-read.
func (c *coverState) marginal(seeds, candidates []graph.VertexID, gains []int64) error {
	for _, v := range seeds[c.added:] {
		c.add(v)
	}
	for i, v := range candidates {
		gains[i] = c.gain(v)
	}
	return nil
}

// MarginalCoverage returns, for every candidate vertex c, the exact number of
// the oracle's RR sets that contain c and are not covered by seeds — the
// integer marginal coverage gain of adding c to the seed set. A nil
// candidates slice means every vertex in [0, n), in ascending order; with
// empty seeds the result is each candidate's raw membership count.
//
// This is the greedy primitive of the distributed serving tier: per-shard
// marginal counts are integers, so a coordinator can sum them across a
// partitioned fleet and run the same CELF loop as GreedySeeds on the unsplit
// sketch, selecting a byte-identical seed sequence.
func (o *Oracle) MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return nil, err
	}
	if candidates != nil {
		if err := o.ValidateSeeds(candidates); err != nil {
			return nil, err
		}
	}
	c := o.getCover()
	for _, v := range seeds {
		c.add(v)
	}
	var gains []int64
	if candidates == nil {
		gains = make([]int64, o.n)
		for v := range gains {
			gains[v] = c.gain(graph.VertexID(v))
		}
	} else {
		gains = make([]int64, len(candidates))
		for i, v := range candidates {
			gains[i] = c.gain(v)
		}
	}
	o.putCover(c)
	return gains, nil
}
