package core

// The marginal-gain primitive and greedy maximum coverage over it — the RIS
// reduction's solver and the oracle-greedy reference of Section 5.2 — as one
// CELF (lazy greedy) loop. The local oracle runs the loop on its own covered
// state (either kernel), seeded with every vertex's count; the distributed
// coordinator (internal/cluster) seeds it from the shards' rankings read page
// by page (rank.go) and runs it with a fleet-wide scatter of
// MarginalCoverage as the primitive, so both select the same sequence by
// construction.
//
// Why the lazy loop selects exactly the eager argmax: the heap orders
// candidates by (gain desc, id asc). A stale entry's gain is an upper bound
// on its true gain (submodularity: marginal gains only shrink as the seed set
// grows), and so is a page bound. So when the heap's top entry is fresh —
// evaluated against the current seed set — every other candidate's true gain
// is at most the top's gain, and any candidate whose stale bound ties it sits
// below the top only if its id is larger. The vertices not paged yet are one
// entry whose gain bounds all of theirs and which sorts before any real entry
// of equal gain, since one of them may hold a smaller id. Selecting a fresh
// top is therefore exactly the (max gain, min id) argmax, without
// re-evaluating the candidates that stay buried, for any batch size and any
// page size.

import (
	"container/heap"
	"math"
	"slices"
	"sync"

	"imdist/internal/graph"
)

// MarginalFunc is the primitive CELF runs on: it sets gains[i] to the exact
// number of RR sets that contain candidates[i] and no vertex of seeds.
// Across one CELF run, seeds only grows by appending, so an implementation
// may keep covered state between calls.
type MarginalFunc func(seeds, candidates []graph.VertexID, gains []int64) error

// celfEntry is one candidate in the lazy-greedy queue: v's marginal gain as
// of round (computed against the first round selected seeds). A page bound
// that is not exact has round -1, stale from the start.
type celfEntry struct {
	gain  int64
	v     graph.VertexID
	round int32
}

// unpaged is the vertex of the entry that stands for every vertex not paged
// yet; it ranks before every real vertex of equal gain.
const unpaged graph.VertexID = -1

// maxBatch caps the doubling re-evaluation batch, so a fleet's candidate
// list stays far below a shard's request body limit.
const maxBatch = 1 << 14

// celfHeap orders by gain descending, then vertex id ascending — the eager
// argmax preference.
type celfHeap []celfEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	return RankKey{h[i].gain, h[i].v}.Before(RankKey{h[j].gain, h[j].v})
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
// With next nil, initial[v] is vertex v's gain against the empty seed set
// (its membership count), so len(initial) is the vertex count and k is
// clamped to it. With next non-nil, initial is unused and the queue starts
// from pages: a paged vertex enters with its bound, fresh for the first pick
// when the bound is exact, and the page's Rest enters as one entry for the
// vertices not paged yet, which reads the next page when it reaches the top;
// k is clamped to the vertices the pages hold.
//
// Each round, while the heap's top is a stale vertex, up to batch stale
// entries are popped and re-evaluated with one marginal call against the
// seeds selected so far; the batch doubles (up to maxBatch) while the top
// stays stale and returns to its start after each pick. A fresh top is
// selected. It returns the seeds in selection order and their coverage
// count — the sum of the selected gains, which telescopes to the number of
// RR sets the seed set covers. A marginal or page error aborts the run and
// is returned as is.
func CELF(k int, initial []int64, next Pager, batch int, marginal MarginalFunc) ([]graph.VertexID, int64, error) {
	if next == nil {
		k = min(k, len(initial))
	}
	if k < 1 {
		return nil, 0, nil
	}
	h := celfHeap{{gain: math.MaxInt64, v: unpaged}}
	if next == nil {
		h = make(celfHeap, len(initial))
		for v, gain := range initial {
			h[v] = celfEntry{gain: gain, v: graph.VertexID(v)}
		}
		heap.Init(&h)
	}
	start := min(max(batch, 1), maxBatch)
	batch = start

	seeds := make([]graph.VertexID, 0, k)
	var covered int64
	var candidates []graph.VertexID
	var gains []int64
	for len(seeds) < k && len(h) > 0 {
		round := int32(len(seeds))
		if h[0].v == unpaged {
			heap.Pop(&h)
			p, err := next()
			if err != nil {
				return nil, 0, err
			}
			for _, e := range p.Entries {
				r := int32(-1)
				if e.Exact {
					r = 0
				}
				h = append(h, celfEntry{gain: e.Bound, v: e.Vertex, round: r})
			}
			if !p.Done {
				h = append(h, celfEntry{gain: p.Rest, v: unpaged})
			}
			heap.Init(&h)
			continue
		}
		if h[0].round == round {
			e := heap.Pop(&h).(celfEntry)
			covered += e.gain
			seeds = append(seeds, e.v)
			batch = start
			continue
		}
		candidates = candidates[:0]
		for len(candidates) < batch && len(h) > 0 && h[0].round != round && h[0].v != unpaged {
			candidates = append(candidates, heap.Pop(&h).(celfEntry).v)
		}
		gains = slices.Grow(gains[:0], len(candidates))[:len(candidates)]
		if err := marginal(seeds, candidates, gains); err != nil {
			return nil, 0, err
		}
		for i, v := range candidates {
			heap.Push(&h, celfEntry{gain: gains[i], v: v, round: round})
		}
		batch = min(2*batch, maxBatch)
	}
	return seeds, covered, nil
}

// coverState is the covered-RR-set state shared by MarginalCoverage and the
// greedy loop: a bitset whose bit i flags RR set i as covered by a seed
// absorbed so far, and the absorbed seeds. It answers any candidate's
// marginal gain against them. Under the epoch kernel, add sets the bits of
// the seed's member list and gain is the candidate's list length minus its
// covered bits; under bitpack, add ORs the seed's packed rows into the bitset
// and gain popcounts the candidate's rows AND NOT covered. Both count the same
// integers, and bitMatrix.cover writes block b from bit
// b·DefaultBatchShardSize on, so the two kernels share one layout and a state
// stays valid when SetKernel flips the kernel.
//
// An oracle keeps up to maxIdleCovers states between calls (coverCache); one
// call owns a state from takeCover to putCover.
type coverState struct {
	o      *Oracle
	m      *bitMatrix       // nil under the epoch kernel
	words  []uint64         // covered bitset, R bits
	seeds  []graph.VertexID // absorbed seeds, ascending while idle
	reused int              // seeds already absorbed when this call took the state
}

// maxIdleCovers bounds the covered states an oracle keeps between calls, at
// R/8 bytes each: enough for a few concurrent greedy queries of a shard fleet
// to each find the state its previous round left.
const maxIdleCovers = 4

// coverCache holds an oracle's idle covered states. A greedy round of a shard
// fleet asks a shard for marginal gains against the seeds picked so far,
// which are the previous round's seeds plus one, so a call that starts from
// the largest idle state it contains absorbs one seed instead of all of them.
type coverCache struct {
	mu       sync.Mutex
	idle     []*coverState // in put order: the least recently used first
	absorbed int64         // seeds absorbed by every call so far
}

// takeCover hands a call the idle state whose absorbed set is the largest
// subset of seeds (ascending and distinct), so the call absorbs only the
// seeds it lacks. When no idle state fits, it clears the least recently used
// one if the idle list is full, and allocates a new state otherwise, so
// concurrent conversations each keep their own.
func (o *Oracle) takeCover(seeds []graph.VertexID) *coverState {
	cc := &o.covers
	cc.mu.Lock()
	best := -1
	for i, c := range cc.idle {
		if isSubset(c.seeds, seeds) && (best < 0 || len(c.seeds) > len(cc.idle[best].seeds)) {
			best = i
		}
	}
	fits := best >= 0
	if !fits && len(cc.idle) == maxIdleCovers {
		best = 0
	}
	var c *coverState
	if best >= 0 {
		c = cc.idle[best]
		cc.idle = slices.Delete(cc.idle, best, best+1)
	}
	cc.mu.Unlock()

	switch {
	case c == nil:
		c = &coverState{o: o, words: make([]uint64, (o.numSets+63)/64)}
	case !fits:
		clear(c.words)
		c.seeds = c.seeds[:0]
	}
	c.reused = len(c.seeds)
	c.m = nil
	if o.useBitpack() {
		c.m = o.packedMatrix()
	}
	return c
}

// putCover returns a state taken by takeCover to the idle list, evicting the
// least recently used state when the list would exceed maxIdleCovers.
func (o *Oracle) putCover(c *coverState) {
	slices.Sort(c.seeds)
	cc := &o.covers
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.absorbed += int64(len(c.seeds) - c.reused)
	cc.idle = append(cc.idle, c)
	if len(cc.idle) > maxIdleCovers {
		cc.idle = slices.Delete(cc.idle, 0, 1)
	}
}

// isSubset reports whether the ascending set sub is contained in the
// ascending set set.
func isSubset(sub, set []graph.VertexID) bool {
	if len(sub) > len(set) {
		return false
	}
	j := 0
	for _, v := range sub {
		for j < len(set) && set[j] < v {
			j++
		}
		if j == len(set) || set[j] != v {
			return false
		}
		j++
	}
	return true
}

// add marks every RR set containing v as covered and records v as absorbed.
func (c *coverState) add(v graph.VertexID) {
	c.seeds = append(c.seeds, v)
	if c.m != nil {
		c.m.cover(int(v), c.words)
		return
	}
	words := c.words
	for _, idx := range c.o.members(v) {
		words[uint32(idx)>>6] |= 1 << (uint32(idx) & 63)
	}
}

// absorb adds every seed of set (ascending, distinct) that the state lacks;
// the state's own seeds must be a subset of set, as takeCover guarantees.
func (c *coverState) absorb(set []graph.VertexID) {
	have, i := c.seeds, 0 // add appends past have's end
	for _, v := range set {
		if i < len(have) && have[i] == v {
			i++
		} else {
			c.add(v)
		}
	}
}

// gain counts the RR sets containing v that are not yet covered.
func (c *coverState) gain(v graph.VertexID) int64 {
	if c.m != nil {
		return c.m.uncovered(int(v), c.words)
	}
	list := c.o.members(v)
	words := c.words
	var covered int64
	for _, idx := range list {
		covered += int64(words[uint32(idx)>>6] >> (uint32(idx) & 63) & 1)
	}
	return int64(len(list)) - covered
}

// marginal is the oracle's MarginalFunc for CELF on a state taken empty. The
// loop only ever appends to seeds, so each call absorbs just the seeds picked
// since the last one: the covered state grows by one seed per pick and no RR
// set is re-read.
func (c *coverState) marginal(seeds, candidates []graph.VertexID, gains []int64) error {
	for _, v := range seeds[len(c.seeds):] {
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
// candidates slice means every vertex in [0, n), in ascending order. With
// empty seeds the result is each candidate's membership count, read from the
// member index offsets in O(1) per candidate under either kernel. Otherwise
// the call starts from the covered state of an earlier call whose seeds its
// own contain, when the oracle still holds one (takeCover), so a caller
// whose seed set grows by one seed per call pays for one seed per call.
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
	if len(seeds) == 0 {
		if candidates == nil {
			return o.VertexCoverage(), nil
		}
		gains := make([]int64, len(candidates))
		for i, v := range candidates {
			gains[i] = o.count(v)
		}
		return gains, nil
	}
	set := slices.Compact(slices.Sorted(slices.Values(seeds)))
	c := o.takeCover(set)
	c.absorb(set)
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
