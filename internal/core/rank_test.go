package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// pool is a small RR pool over n vertices, whole and split by set index
// into contiguous parts, the way a sketch is split across a shard fleet.
type pool struct {
	n     int
	whole *Oracle
	parts []*Oracle
}

func newPool(t *testing.T, n int, sets [][]graph.VertexID, cuts []int) pool {
	t.Helper()
	whole, err := NewOracleFromRRSets(n, diffusion.IC, 1, sets)
	if err != nil {
		t.Fatal(err)
	}
	p := pool{n: n, whole: whole}
	lo := 0
	for _, hi := range append(cuts, len(sets)) {
		part, err := NewOracleFromRRSets(n, diffusion.IC, 1, sets[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		p.parts = append(p.parts, part)
		lo = hi
	}
	return p
}

// randomPool draws up to 30 RR sets of 1–3 vertices from at most 8
// vertices, so counts tie often, and splits them into 1–4 parts.
func randomPool(t *testing.T, r *rng.Xoshiro256) pool {
	n := 1 + r.Intn(8)
	sets := make([][]graph.VertexID, 1+r.Intn(30))
	for i := range sets {
		for range 1 + r.Intn(3) {
			v := graph.VertexID(r.Intn(n))
			if !slices.Contains(sets[i], v) {
				sets[i] = append(sets[i], v)
			}
		}
	}
	// Distinct cut points in [1, len(sets)): every part holds a set.
	var cuts []int
	for range r.Intn(min(4, len(sets))) {
		if c := 1 + r.Intn(len(sets)-1); !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	return newPool(t, n, sets, cuts)
}

// pager reads the parts' rankings limit entries at a time, as a coordinator
// reads its shards', and fails the test if it is called after Done.
func (p pool) pager(t *testing.T, limit int) Pager {
	r := NewShardRanking(p.n, len(p.parts))
	done := false
	return func() (Page, error) {
		if done {
			t.Fatal("pager called after Done")
		}
		pages := make([][]RankKey, len(p.parts))
		for s, o := range p.parts {
			pages[s] = o.RankPage(r.After(s), limit)
		}
		page, err := r.Merge(limit, pages)
		done = page.Done
		return page, err
	}
}

// marginal sums the parts' MarginalCoverage, as the coordinator's scatter
// does.
func (p pool) marginal(seeds, candidates []graph.VertexID, gains []int64) error {
	clear(gains)
	for _, o := range p.parts {
		g, err := o.MarginalCoverage(seeds, candidates)
		if err != nil {
			return err
		}
		for i := range g {
			gains[i] += g[i]
		}
	}
	return nil
}

// check runs paged CELF at every page size and batch start, and paged top-k
// at every page size and k, against the unsplit pool's references.
func (p pool) check(t *testing.T) {
	t.Helper()
	n := p.n
	want := referenceGreedy(t, p.whole, n)
	wantCovered, err := p.whole.Coverage(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 64} {
		seeds, covered, err := CELF(n, p.whole.VertexCoverage(), nil, batch, marginalCoverageFunc(p.whole))
		if err != nil || !slices.Equal(seeds, want) || covered != wantCovered {
			t.Fatalf("CELF over all counts, batch %d: %v covering %d (%v), reference %v covering %d",
				batch, seeds, covered, err, want, wantCovered)
		}
		for limit := 1; limit <= n; limit++ {
			for _, k := range []int{1, n, n + 3} {
				seeds, covered, err := CELF(k, nil, p.pager(t, limit), batch, p.marginal)
				wantK := want[:min(k, n)]
				wantCovered, _ := p.whole.Coverage(wantK)
				if err != nil || !slices.Equal(seeds, wantK) || covered != wantCovered {
					t.Fatalf("paged CELF k=%d, page %d, batch %d: %v covering %d (%v), reference %v covering %d",
						k, limit, batch, seeds, covered, err, wantK, wantCovered)
				}
			}
		}
	}
	counts := p.whole.VertexCoverage()
	for limit := 1; limit <= n; limit++ {
		for k := 0; k <= n+1; k++ {
			wantVs, wantCounts := TopVertices(counts, k)
			vs, got, err := TopPaged(k, p.pager(t, limit), p.marginal)
			if err != nil || !slices.Equal(vs, wantVs) || !slices.Equal(got, wantCounts) {
				t.Fatalf("paged top k=%d, page %d: %v %v (%v), want %v %v", k, limit, vs, got, err, wantVs, wantCounts)
			}
		}
	}
}

// TestPagedCELFAndTopMatchReferences pins the paged loops to the unsplit
// pool on random pools with many tied counts: paged CELF selects the
// sequence, with the coverage, of CELF over the full count vector and of the
// MarginalCoverage argmax, and paged top-k returns TopVertices' ranking.
func TestPagedCELFAndTopMatchReferences(t *testing.T) {
	r := rng.NewXoshiro(17)
	for i := range 200 {
		p := randomPool(t, r)
		t.Run(fmt.Sprintf("pool%d/n=%d/parts=%d", i, p.n, len(p.parts)), p.check)
	}
}

// TestPagedCELFUnseenTieWithSmallerID builds the case the unseen entry's
// tie rule exists for. Vertex 3 covers five sets and is picked first; vertex
// 2 (count 3) then gains 2, and so does vertex 1, which a page of three has
// not reached: the ranking is 3, 2, 0, 1, and vertex 0 ties vertex 1's count
// of 2 but overlaps vertex 3. The unseen bound is then 2, the same as vertex
// 2's fresh gain, so the loop must read the next page rather than pick
// vertex 2, because vertex 1 wins the tie by id.
func TestPagedCELFUnseenTieWithSmallerID(t *testing.T) {
	sets := [][]graph.VertexID{{3, 2}, {3, 0}, {3}, {3}, {3}, {2}, {2}, {0}, {1}, {1}}
	for _, cuts := range [][]int{nil, {5}} {
		p := newPool(t, 4, sets, cuts)
		seeds, _, err := CELF(2, nil, p.pager(t, 3), 1, p.marginal)
		if err != nil || !slices.Equal(seeds, []graph.VertexID{3, 1}) {
			t.Errorf("parts=%d: paged CELF picked %v (%v), want [3 1]", len(p.parts), seeds, err)
		}
		p.check(t)
	}
}

func TestPagedCELFPropagatesPageError(t *testing.T) {
	boom := errors.New("shard down")
	seeds, covered, err := CELF(2, nil, func() (Page, error) { return Page{}, boom }, 1, nil)
	if !errors.Is(err, boom) || seeds != nil || covered != 0 {
		t.Errorf("CELF = (%v, %d, %v), want (nil, 0, %v)", seeds, covered, err, boom)
	}
	if _, _, err := TopPaged(2, func() (Page, error) { return Page{}, boom }, nil); !errors.Is(err, boom) {
		t.Errorf("TopPaged err = %v, want %v", err, boom)
	}
}

// TestShardRankingRejectsBadPages feeds Merge pages that break its contract
// and checks each is refused, naming the page's shard.
func TestShardRankingRejectsBadPages(t *testing.T) {
	first := []RankKey{{5, 2}, {3, 0}}
	cases := []struct {
		name  string
		limit int
		pages [][]RankKey // the second round, after first on both shards
	}{
		{"too long", 2, [][]RankKey{{{2, 1}, {1, 3}}, {{2, 1}, {1, 3}, {0, 4}}}},
		{"out of order", 2, [][]RankKey{{{2, 1}, {1, 3}}, {{1, 3}, {2, 1}}}},
		{"not after cursor", 2, [][]RankKey{{{2, 1}, {1, 3}}, {{3, 0}, {2, 1}}}},
		{"repeats a vertex", 2, [][]RankKey{{{2, 1}, {1, 3}}, {{2, 1}, {1, 2}}}},
		{"repeats within the page", 3, [][]RankKey{{{2, 1}, {1, 3}, {0, 4}}, {{2, 1}, {1, 1}, {0, 4}}}},
		{"ends early", 3, [][]RankKey{{{2, 1}, {1, 3}, {0, 4}}, {{2, 1}, {1, 3}}}},
	}
	for _, tc := range cases {
		r := NewShardRanking(5, 2)
		if _, err := r.Merge(2, [][]RankKey{first, first}); err != nil {
			t.Fatalf("%s: first round refused: %v", tc.name, err)
		}
		_, err := r.Merge(tc.limit, tc.pages)
		var pe *PageError
		if !errors.As(err, &pe) || pe.Shard != 1 {
			t.Errorf("%s: Merge err = %v, want a PageError for shard 1", tc.name, err)
		}
	}
}
