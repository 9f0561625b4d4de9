package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

func mustBuilder(t testing.TB, ig *graph.InfluenceGraph, workers int, seed uint64) *SketchBuilder {
	t.Helper()
	b, err := NewSketchBuilder(ig, diffusion.IC, workers, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// builderSets snapshots every RR set of b, in generation order, by streaming
// its store and cloning each set: a set is valid only until the callback
// returns.
func builderSets(t testing.TB, b *SketchBuilder) [][]graph.VertexID {
	t.Helper()
	sets := make([][]graph.VertexID, 0, b.NumSets())
	err := b.Store().ForEach(0, b.NumSets(), func(_ int, set []graph.VertexID) error {
		sets = append(sets, slices.Clone(set))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sets
}

// sameMemberIndex reports whether two oracles hold equal member indexes,
// which is what makes every query answer equal.
func sameMemberIndex(a, b *Oracle) bool {
	ao, ae := a.MemberIndex()
	bo, be := b.MemberIndex()
	return slices.Equal(ao, bo) && slices.Equal(ae, be)
}

// TestBuilderMatchesOneShot is the determinism core of the incremental
// builder: growing a sketch in any batch schedule, at any worker count, must
// produce exactly the RR sets of the one-shot parallel build with the same
// seed and total.
func TestBuilderMatchesOneShot(t *testing.T) {
	ig := karateIWC(t)
	const total = 5000
	const seed = 7
	want, err := NewOracleParallelSeeded(ig, diffusion.IC, total, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	schedules := [][]int{
		{total},
		{1, 2, 97, 900, 4000},
		{2500, 2500},
	}
	for _, workers := range []int{1, 4} {
		for _, schedule := range schedules {
			b := mustBuilder(t, ig, workers, seed)
			for _, m := range schedule {
				if err := b.AppendBatch(m); err != nil {
					t.Fatal(err)
				}
			}
			if b.NumSets() != total {
				t.Fatalf("workers=%d schedule=%v: %d sets, want %d", workers, schedule, b.NumSets(), total)
			}
			o, err := b.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			if !sameMemberIndex(o, want) {
				t.Errorf("workers=%d schedule=%v: member index differs from one-shot build", workers, schedule)
			}
			if o.Model() != want.Model() || o.BuildSeed() != want.BuildSeed() || o.NumSets() != want.NumSets() {
				t.Errorf("workers=%d: oracle metadata (%v, %d, %d) != one-shot (%v, %d, %d)",
					workers, o.Model(), o.BuildSeed(), o.NumSets(),
					want.Model(), want.BuildSeed(), want.NumSets())
			}
		}
	}
}

// TestBuilderResumeMatchesUninterrupted hands a builder's sets to
// ResumeSketchBuilder (the checkpoint path) and verifies the continued
// sequence is indistinguishable from never stopping.
func TestBuilderResumeMatchesUninterrupted(t *testing.T) {
	ig := karateIWC(t)
	const seed = 11
	straight := mustBuilder(t, ig, 4, seed)
	if err := straight.AppendBatch(2000); err != nil {
		t.Fatal(err)
	}

	first := mustBuilder(t, ig, 1, seed)
	if err := first.AppendBatch(750); err != nil {
		t.Fatal(err)
	}
	// Simulate a checkpoint: copy the sets out, resume a fresh builder from
	// them (different worker count on purpose), and finish the build.
	saved := builderSets(t, first)
	resumed, err := ResumeSketchBuilder(ig, diffusion.IC, 4, seed, saved)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumSets() != 750 {
		t.Fatalf("resumed at %d sets, want 750", resumed.NumSets())
	}
	if err := resumed.AppendBatch(1250); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(builderSets(t, resumed), builderSets(t, straight)) {
		t.Error("resumed build differs from uninterrupted build")
	}
}

func TestResumeSketchBuilderValidates(t *testing.T) {
	ig := karateIWC(t)
	if _, err := ResumeSketchBuilder(nil, diffusion.IC, 1, 1, nil); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("nil graph: err = %v, want ErrEmptyGraph", err)
	}
	bad := [][]graph.VertexID{{0, graph.VertexID(ig.NumVertices())}}
	if _, err := ResumeSketchBuilder(ig, diffusion.IC, 1, 1, bad); err == nil {
		t.Error("out-of-range checkpointed vertex accepted")
	}
}

func TestAppendBatchRejectsNonPositive(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 1, 1)
	if err := b.AppendBatch(0); err == nil {
		t.Error("AppendBatch(0) accepted")
	}
	if err := b.AppendBatch(-5); err == nil {
		t.Error("AppendBatch(-5) accepted")
	}
}

func TestErrorBoundShrinks(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 2, 3)
	if got := b.ErrorBound(10, 0.01); !math.IsInf(got, 1) {
		t.Fatalf("empty builder bound = %v, want +Inf", got)
	}
	if err := b.AppendBatch(500); err != nil {
		t.Fatal(err)
	}
	small := b.ErrorBound(10, 0.01)
	if math.IsInf(small, 1) || small <= 0 {
		t.Fatalf("bound at 500 sets = %v, want finite positive", small)
	}
	if err := b.AppendBatch(7500); err != nil {
		t.Fatal(err)
	}
	large := b.ErrorBound(10, 0.01)
	if large >= small {
		t.Errorf("bound did not shrink: %v at 500 sets, %v at 8000", small, large)
	}
	// 16x the sets divides the Hoeffding half-width by 4; the greedy lower
	// bound moves a little, so allow slack around the exact factor.
	if large > small/2 {
		t.Errorf("bound shrank too slowly: %v -> %v over 16x sets", small, large)
	}
}

func TestBuildToTargetConverges(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 4, 7)
	var rounds int
	lastSets := 0
	res, err := b.BuildToTarget(context.Background(), BuildTarget{
		Eps:     0.2,
		Delta:   0.01,
		K:       4,
		MaxSets: 1 << 20,
		Progress: func(p BuildProgress) error {
			rounds++
			if p.Sets < lastSets {
				t.Errorf("progress went backwards: %d -> %d", lastSets, p.Sets)
			}
			if p.Fraction < 0 || p.Fraction > 1 {
				t.Errorf("fraction %v outside [0, 1]", p.Fraction)
			}
			lastSets = p.Sets
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("build did not converge: %+v", res)
	}
	if res.Bound > 0.2 {
		t.Errorf("converged with bound %v > eps 0.2", res.Bound)
	}
	if res.Sets != b.NumSets() || res.Sets < DefaultMinSets {
		t.Errorf("result sets %d inconsistent (builder %d)", res.Sets, b.NumSets())
	}
	if res.Sets >= 1<<20 {
		t.Errorf("converged build used the whole cap: %d sets", res.Sets)
	}
	if rounds == 0 {
		t.Error("progress callback never ran")
	}
}

func TestBuildToTargetHonorsCap(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 2, 7)
	res, err := b.BuildToTarget(context.Background(), BuildTarget{
		Eps:     1e-9, // unreachable
		MaxSets: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("unreachable eps reported converged")
	}
	if res.Sets != 3000 || b.NumSets() != 3000 {
		t.Errorf("capped build has %d sets (builder %d), want 3000", res.Sets, b.NumSets())
	}
}

// TestBuildToTargetFixedSize covers the Eps <= 0 mode the async build service
// uses for classic fixed-count builds: straight to MaxSets, no bound checks.
func TestBuildToTargetFixedSize(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 2, 9)
	res, err := b.BuildToTarget(context.Background(), BuildTarget{MaxSets: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sets != 2500 || res.Converged || !math.IsInf(res.Bound, 1) {
		t.Errorf("fixed-size result = %+v, want 2500 sets, not converged, +Inf bound", res)
	}
	want, err := NewOracleParallelSeeded(karateIWC(t), diffusion.IC, 2500, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !sameMemberIndex(o, want) {
		t.Error("fixed-size target build differs from one-shot build")
	}
}

func TestBuildToTargetCancel(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 1, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.BuildToTarget(ctx, BuildTarget{MaxSets: 1 << 30}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled build returned %v, want context.Canceled", err)
	}

	// Cancellation mid-build: abort from the progress hook's cancel, then
	// verify the builder is still usable (resumable) afterwards.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	_, err := b.BuildToTarget(ctx, BuildTarget{
		MaxSets: 1 << 30,
		Progress: func(p BuildProgress) error {
			if p.Sets >= 2048 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel returned %v, want context.Canceled", err)
	}
	if b.NumSets() < 2048 {
		t.Fatalf("builder lost progress on cancel: %d sets", b.NumSets())
	}
	if err := b.AppendBatch(10); err != nil {
		t.Errorf("builder unusable after cancel: %v", err)
	}
}

func TestBuildToTargetValidates(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 1, 1)
	if _, err := b.BuildToTarget(context.Background(), BuildTarget{}); err == nil {
		t.Error("MaxSets 0 accepted")
	}
	sentinel := errors.New("stop")
	_, err := b.BuildToTarget(context.Background(), BuildTarget{
		MaxSets:  1 << 20,
		Progress: func(BuildProgress) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("progress error not propagated: %v", err)
	}
}
