package core

// Vertex rankings by membership count, read whole or page by page.
//
// A sketch split across a shard fleet ranks each slice on its own shard. The
// coordinator reads those rankings only as deep as an answer needs: a vertex's
// count over the whole pool is the sum of its shard counts, and a vertex that
// shard s has not paged yet counts at most s's last paged count there. That is
// the bound of Fagin's threshold algorithm (Fagin, Lotem & Naor, PODS 2001),
// and both TopPaged and CELF stop reading once it can no longer change their
// answer, so the gather grows with k rather than with n × shards.

import (
	"fmt"
	"slices"
	"sort"

	"imdist/internal/graph"
)

// RankKey is a position in the ranking of vertices by coverage count: count
// descending, then vertex id ascending. It is the order of TopVertices and
// the argmax preference of CELF.
type RankKey struct {
	Count  int64
	Vertex graph.VertexID
}

// Before reports whether a ranks strictly ahead of b.
func (a RankKey) Before(b RankKey) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Vertex < b.Vertex
}

// compareRank is Before as a three-way comparison, for slices.SortFunc.
func compareRank(a, b RankKey) int {
	switch {
	case a.Before(b):
		return -1
	case b.Before(a):
		return 1
	}
	return 0
}

// TopVertices ranks vertices by exact coverage count — counts[v] non-
// increasing, ties broken by ascending vertex id — and returns the first k
// (all of them when k <= 0 or k > len(counts)) with their counts. Influence
// is a strictly increasing function of the count at a fixed Scale, so this
// is also the ranking by influence, for one sketch and for a shard fleet's
// summed counts alike.
func TopVertices(counts []int64, k int) ([]graph.VertexID, []int64) {
	vs := make([]graph.VertexID, len(counts))
	for v := range vs {
		vs[v] = graph.VertexID(v)
	}
	slices.SortFunc(vs, func(a, b graph.VertexID) int {
		return compareRank(RankKey{counts[a], a}, RankKey{counts[b], b})
	})
	if k > 0 && k < len(vs) {
		vs = slices.Clone(vs[:k])
	}
	top := make([]int64, len(vs))
	for i, v := range vs {
		top[i] = counts[v]
	}
	return vs, top
}

// count is vertex v's membership count: the number of RR sets containing it.
func (o *Oracle) count(v graph.VertexID) int64 { return int64(o.offsets[v+1] - o.offsets[v]) }

// ranking returns every vertex in RankKey order, sorted once per oracle.
func (o *Oracle) ranking() []graph.VertexID {
	o.rankOnce.Do(func() { o.rank, _ = TopVertices(o.VertexCoverage(), 0) })
	return o.rank
}

// RankPage returns, with their membership counts, up to limit vertices that
// follow after in the oracle's ranking (from the top when after is nil).
// After the first call sorts the ranking, a page costs a binary search plus
// its own length. after need not be a vertex's own key: any position works.
func (o *Oracle) RankPage(after *RankKey, limit int) []RankKey {
	rank := o.ranking()
	i := 0
	if after != nil {
		i = sort.Search(len(rank), func(i int) bool {
			return after.Before(RankKey{o.count(rank[i]), rank[i]})
		})
	}
	page := make([]RankKey, min(max(limit, 0), len(rank)-i))
	for j := range page {
		v := rank[i+j]
		page[j] = RankKey{o.count(v), v}
	}
	return page
}

// PageEntry is one vertex of a ranking read page by page: an upper bound on
// its count, which is its gain against the empty seed set, and whether the
// bound is the count itself.
type PageEntry struct {
	Vertex graph.VertexID
	Bound  int64
	Exact  bool
}

// Page is the next step of a ranking read page by page: the vertices seen
// for the first time, and Rest, an upper bound on the count of every vertex
// not seen yet. Done means no vertex is left unseen; Rest is then unused.
type Page struct {
	Entries []PageEntry
	Rest    int64
	Done    bool
}

// Pager returns the next Page of a ranking. Across the calls of one run,
// every vertex appears in exactly one page.
type Pager func() (Page, error)

// ShardRanking merges the rankings of the shards of a split RR pool into
// Pages. Each round the caller reads the next page of every shard's
// RankPage, after the cursor After returns, and Merge folds the round into
// one Page. A vertex first seen in a round is bounded by the sum over shards
// of its count on s if s paged it, else s's last paged count; the bound is
// exact when every shard paged it. Rest is the sum of the last counts.
//
// The bounds are only as good as the pages, so Merge checks each page before
// trusting it: strictly after the shard's cursor and in RankKey order, no
// vertex paged twice by one shard, no more entries than requested, and a
// page shorter than requested must finish the shard's ranking of n vertices.
// Vertex ids and counts must already be in range.
type ShardRanking struct {
	n     int
	last  []RankKey
	paged []map[graph.VertexID]struct{}
	seen  map[graph.VertexID]struct{}
}

// NewShardRanking starts merging the rankings of a pool of n vertices split
// into shards parts.
func NewShardRanking(n, shards int) *ShardRanking {
	r := &ShardRanking{
		n:     n,
		last:  make([]RankKey, shards),
		paged: make([]map[graph.VertexID]struct{}, shards),
		seen:  make(map[graph.VertexID]struct{}),
	}
	for s := range r.paged {
		r.paged[s] = make(map[graph.VertexID]struct{})
	}
	return r
}

// After returns the cursor to request shard s's next page after: its last
// paged entry, or nil before its first page.
func (r *ShardRanking) After(s int) *RankKey {
	if len(r.paged[s]) == 0 {
		return nil
	}
	return &r.last[s]
}

// PageError reports a page that breaks the contract Merge checks; Shard is
// the index of the offending page.
type PageError struct {
	Shard int
	Msg   string
}

func (e *PageError) Error() string { return e.Msg }

// Merge checks one round of pages, each requested with limit entries, and
// folds them into the next Page.
func (r *ShardRanking) Merge(limit int, pages [][]RankKey) (Page, error) {
	for s, page := range pages {
		if err := r.check(s, limit, page); err != nil {
			return Page{}, err
		}
	}
	var p Page
	for s, page := range pages {
		if len(page) > 0 {
			r.last[s] = page[len(page)-1]
		}
		// A finished shard paged every vertex, so none is left unseen.
		p.Done = p.Done || len(r.paged[s]) == r.n
		p.Rest += r.last[s].Count
	}
	// Bound = Rest + Σ over the shards that paged v of (count - last count).
	at := make(map[graph.VertexID]int)
	var shards []int // how many shards paged each entry
	for s, page := range pages {
		for _, e := range page {
			if _, old := r.seen[e.Vertex]; old {
				continue
			}
			i, ok := at[e.Vertex]
			if !ok {
				i = len(p.Entries)
				at[e.Vertex] = i
				p.Entries = append(p.Entries, PageEntry{Vertex: e.Vertex, Bound: p.Rest})
				shards = append(shards, 0)
			}
			p.Entries[i].Bound += e.Count - r.last[s].Count
			shards[i]++
		}
	}
	for i := range p.Entries {
		p.Entries[i].Exact = shards[i] == len(pages)
		r.seen[p.Entries[i].Vertex] = struct{}{}
	}
	return p, nil
}

// check validates shard s's page and records its vertices as paged there.
func (r *ShardRanking) check(s, limit int, page []RankKey) error {
	fail := func(format string, args ...any) error {
		return &PageError{Shard: s, Msg: fmt.Sprintf(format, args...)}
	}
	if len(page) > limit {
		return fail("page holds %d entries, %d requested", len(page), limit)
	}
	left := r.n - len(r.paged[s])
	if len(page) < limit && len(page) != left {
		return fail("page holds %d of %d requested entries, but %d vertices are unranked", len(page), limit, left)
	}
	prev := r.After(s)
	for i, e := range page {
		if prev != nil && !prev.Before(e) {
			return fail("page entry %d [%d,%d] does not follow [%d,%d] in (count desc, id asc) order",
				i, e.Count, e.Vertex, prev.Count, prev.Vertex)
		}
		if _, dup := r.paged[s][e.Vertex]; dup {
			return fail("page entry %d repeats vertex %d", i, e.Vertex)
		}
		r.paged[s][e.Vertex] = struct{}{}
		prev = &page[i]
	}
	return nil
}

// TopPaged is TopVertices over counts read page by page (Fagin's threshold
// algorithm): it reads pages until the k-th best exact count is strictly
// above the bound on every unseen vertex — an unseen vertex tying it could
// hold a smaller id — or no vertex is left unseen. exact is called with no
// seeds for the exact counts of seen vertices whose page bound is not exact,
// skipping those whose bound already ranks behind the k-th exact count.
// k <= 0 means every vertex.
func TopPaged(k int, next Pager, exact MarginalFunc) ([]graph.VertexID, []int64, error) {
	var top []RankKey // exact counts of the best vertices seen, in rank order
	keep := func() {
		slices.SortFunc(top, compareRank)
		if k > 0 && len(top) > k {
			top = top[:k]
		}
	}
	for {
		p, err := next()
		if err != nil {
			return nil, nil, err
		}
		for _, e := range p.Entries {
			if e.Exact {
				top = append(top, RankKey{e.Bound, e.Vertex})
			}
		}
		keep()
		var lookup []graph.VertexID
		for _, e := range p.Entries {
			if !e.Exact && (k <= 0 || len(top) < k || (RankKey{e.Bound, e.Vertex}).Before(top[k-1])) {
				lookup = append(lookup, e.Vertex)
			}
		}
		if len(lookup) > 0 {
			counts := make([]int64, len(lookup))
			if err := exact(nil, lookup, counts); err != nil {
				return nil, nil, err
			}
			for i, v := range lookup {
				top = append(top, RankKey{counts[i], v})
			}
			keep()
		}
		if p.Done || (k > 0 && len(top) == k && top[k-1].Count > p.Rest) {
			break
		}
	}
	vs := make([]graph.VertexID, len(top))
	counts := make([]int64, len(top))
	for i, e := range top {
		vs[i], counts[i] = e.Vertex, e.Count
	}
	return vs, counts, nil
}
