package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"imdist/internal/graph"
)

// setSystem is a maximum coverage instance seen from the candidate side:
// candidate v covers the elements sets[v] (no duplicates within a list).
type setSystem [][]int

// setSystemFromRaw decodes random (candidate, element) pairs into a set
// system over numSets candidates and numElems elements, dropping repeats.
func setSystemFromRaw(raw []uint16, numSets, numElems int) setSystem {
	s := make(setSystem, numSets)
	for _, r := range raw {
		e := int(r>>8) % numElems
		v := int(r&0xff) % numSets
		if !slices.Contains(s[v], e) {
			s[v] = append(s[v], e)
		}
	}
	return s
}

func (s setSystem) initial() []int64 {
	gains := make([]int64, len(s))
	for v, elems := range s {
		gains[v] = int64(len(elems))
	}
	return gains
}

func (s setSystem) covered(seeds []graph.VertexID) map[int]bool {
	covered := make(map[int]bool)
	for _, v := range seeds {
		for _, e := range s[v] {
			covered[e] = true
		}
	}
	return covered
}

// marginal is a stateless brute-force MarginalFunc; it never fails.
func (s setSystem) marginal(seeds, candidates []graph.VertexID, gains []int64) error {
	covered := s.covered(seeds)
	for i, v := range candidates {
		gains[i] = 0
		for _, e := range s[v] {
			if !covered[e] {
				gains[i]++
			}
		}
	}
	return nil
}

// eager is the plain greedy: a full argmax (max gain, smallest id) over the
// unselected candidates every round.
func (s setSystem) eager(k int) []graph.VertexID {
	k = min(k, len(s))
	chosen := make([]bool, len(s))
	var seeds []graph.VertexID
	all := make([]graph.VertexID, len(s))
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	gains := make([]int64, len(s))
	for len(seeds) < k {
		_ = s.marginal(seeds, all, gains)
		best := -1
		for v, g := range gains {
			if !chosen[v] && (best < 0 || g > gains[best]) {
				best = v
			}
		}
		chosen[best] = true
		seeds = append(seeds, graph.VertexID(best))
	}
	return seeds
}

// gains returns the marginal gain of each pick in selection order.
func (s setSystem) gains(seeds []graph.VertexID) []int64 {
	out := make([]int64, len(seeds))
	for i := range seeds {
		_ = s.marginal(seeds[:i], seeds[i:i+1], out[i:i+1])
	}
	return out
}

func mustCELF(t *testing.T, s setSystem, k, batch int) ([]graph.VertexID, int64) {
	t.Helper()
	seeds, covered, err := CELF(k, s.initial(), batch, s.marginal)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(s.covered(seeds))); covered != want {
		t.Fatalf("CELF coverage %d, seeds %v cover %d", covered, seeds, want)
	}
	return seeds, covered
}

func TestCELFSimple(t *testing.T) {
	// A={0,1,2}, B={2,3}, C={4}: greedy picks A (gain 3), then B and C tie at
	// gain 1 and the smaller id (B) wins.
	s := setSystem{{0, 1, 2}, {2, 3}, {4}}
	seeds, covered := mustCELF(t, s, 2, 1)
	if !slices.Equal(seeds, []graph.VertexID{0, 1}) {
		t.Errorf("seeds = %v, want [0 1]", seeds)
	}
	if covered != 4 {
		t.Errorf("covered = %d, want 4", covered)
	}
	if g := s.gains(seeds); !slices.Equal(g, []int64{3, 1}) {
		t.Errorf("gains = %v, want [3 1]", g)
	}
}

func TestCELFCoversEverythingWhenKLargeEnough(t *testing.T) {
	s := setSystem{{0, 1}, {2, 3}, {4, 5}}
	for _, k := range []int{3, 5} { // 5 clamps to the 3 candidates
		seeds, covered := mustCELF(t, s, k, 1)
		if len(seeds) != 3 || covered != 6 {
			t.Errorf("k=%d: seeds %v cover %d, want all 3 covering 6", k, seeds, covered)
		}
	}
}

func TestCELFZeroK(t *testing.T) {
	s := setSystem{{0, 1, 2}}
	for _, k := range []int{0, -1} {
		seeds, covered, err := CELF(k, s.initial(), 1, func(_, _ []graph.VertexID, _ []int64) error {
			t.Fatal("marginal called for k < 1")
			return nil
		})
		if seeds != nil || covered != 0 || err != nil {
			t.Errorf("k=%d: (%v, %d, %v), want (nil, 0, nil)", k, seeds, covered, err)
		}
	}
}

// TestCELFMatchesEagerGreedy checks the lazy loop against the eager argmax on
// random instances: the same seed sequence, not just the same coverage, at
// every batch size.
func TestCELFMatchesEagerGreedy(t *testing.T) {
	f := func(raw []uint16, numSetsRaw, numElemsRaw, kRaw, batchRaw uint8) bool {
		numSets := int(numSetsRaw%10) + 1
		s := setSystemFromRaw(raw, numSets, int(numElemsRaw%30)+1)
		k := int(kRaw)%(numSets+2) + 1 // may exceed numSets: the clamp
		seeds, covered, err := CELF(k, s.initial(), int(batchRaw%4)+1, s.marginal)
		return err == nil && slices.Equal(seeds, s.eager(k)) && covered == int64(len(s.covered(seeds)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCELFGainsAreNonIncreasing(t *testing.T) {
	f := func(raw []uint16) bool {
		s := setSystemFromRaw(raw, 8, 40)
		seeds, _, err := CELF(8, s.initial(), 1, s.marginal)
		if err != nil {
			return false
		}
		g := s.gains(seeds)
		for i := 1; i < len(g); i++ {
			if g[i] > g[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCELFAchievesApproximationOnKnownInstance(t *testing.T) {
	// The optimal 2 sets (A+B) cover 8 elements; C is greedy bait with gain
	// 5. Greedy must still cover at least (1-1/e) of the optimum.
	s := setSystem{
		{0, 1, 2, 3},    // A
		{4, 5, 6, 7},    // B
		{0, 1, 4, 5, 6}, // C
	}
	if _, covered := mustCELF(t, s, 2, 1); float64(covered) < (1-1/math.E)*8 {
		t.Errorf("greedy covered %d, below the (1-1/e) bound", covered)
	}
}

func TestCELFPropagatesMarginalError(t *testing.T) {
	// Two picks force a re-evaluation, whose error must surface unchanged.
	s := setSystem{{0, 1}, {1}, {2}}
	boom := errors.New("shard down")
	seeds, covered, err := CELF(2, s.initial(), 1, func(_, _ []graph.VertexID, _ []int64) error { return boom })
	if !errors.Is(err, boom) || seeds != nil || covered != 0 {
		t.Errorf("CELF = (%v, %d, %v), want (nil, 0, %v)", seeds, covered, err, boom)
	}
}
