package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore(nil)
	if s.NumSets() != 0 {
		t.Fatalf("empty store holds %d sets", s.NumSets())
	}
	if err := s.Append([][]graph.VertexID{{1, 2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]graph.VertexID{{4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if s.NumSets() != 3 {
		t.Fatalf("store holds %d sets, want 3", s.NumSets())
	}

	var walked []int
	var walkedSets [][]graph.VertexID
	err := s.ForEach(1, 3, func(i int, set []graph.VertexID) error {
		walked = append(walked, i)
		walkedSets = append(walkedSets, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walked, []int{1, 2}) {
		t.Errorf("ForEach visited %v, want [1 2]", walked)
	}
	if want := [][]graph.VertexID{{3}, {4, 5, 6}}; !reflect.DeepEqual(walkedSets, want) {
		t.Errorf("ForEach(1, 3) sets = %v, want %v", walkedSets, want)
	}
	if err := s.ForEach(0, 4, func(int, []graph.VertexID) error { return nil }); err == nil {
		t.Error("out-of-range ForEach accepted")
	}
	sentinel := errors.New("stop")
	if err := s.ForEach(0, 3, func(int, []graph.VertexID) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("ForEach error not propagated: %v", err)
	}

	st := s.Stats()
	// 3 sets: payload = 3 record headers + 6 vertices, 4 bytes each.
	if st.Sets != 3 || st.PayloadBytes != 3*4+6*4 || st.SpillBytes != 0 || st.MemBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestMemStoreConcurrentReadsWithAppend pins the RRStore contract the oracle
// snapshot relies on: reads of the existing prefix race with one appender
// without torn state (run under -race).
func TestMemStoreConcurrentReadsWithAppend(t *testing.T) {
	s := NewMemStore([][]graph.VertexID{{0}, {1}, {2}})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := s.Append([][]graph.VertexID{{graph.VertexID(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.NumSets()
			_ = s.Stats()
			_ = s.ForEach(0, 3, func(_ int, set []graph.VertexID) error {
				_ = set[0]
				return nil
			})
		}
	}()
	wg.Wait()
	if s.NumSets() != 203 {
		t.Errorf("store holds %d sets, want 203", s.NumSets())
	}
}

// TestBuilderFromStoreResumes verifies the trusted-store resume path: a
// builder reconstructed over an existing store continues the deterministic
// sequence exactly where a validated resume would.
func TestBuilderFromStoreResumes(t *testing.T) {
	ig := karateIWC(t)
	const seed = 19
	straight := mustBuilder(t, ig, 2, seed)
	if err := straight.AppendBatch(1200); err != nil {
		t.Fatal(err)
	}

	first := mustBuilder(t, ig, 1, seed)
	if err := first.AppendBatch(500); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSketchBuilderFromStore(ig, diffusion.IC, 4, seed, NewMemStore(builderSets(t, first)))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumSets() != 500 {
		t.Fatalf("resumed at %d sets, want 500", resumed.NumSets())
	}
	if err := resumed.AppendBatch(700); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(builderSets(t, resumed), builderSets(t, straight)) {
		t.Error("store-resumed build differs from uninterrupted build")
	}
}

// TestOracleSnapshotSurvivesAppends: an oracle finalized mid-build answers
// from its prefix while the builder appends past it through the shared store.
func TestOracleSnapshotSurvivesAppends(t *testing.T) {
	b := mustBuilder(t, karateIWC(t), 2, 5)
	if err := b.AppendBatch(800); err != nil {
		t.Fatal(err)
	}
	o1, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if o1.NumSets() != 800 {
		t.Fatalf("oracle snapshot has %d sets", o1.NumSets())
	}
	inf, err := o1.Influence([]graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	payload := o1.PayloadBytes()

	if err := b.AppendBatch(800); err != nil {
		t.Fatal(err)
	}
	got, err := o1.Influence([]graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != inf {
		t.Errorf("snapshot influence drifted after append: %v -> %v", inf, got)
	}
	if o1.PayloadBytes() != payload {
		t.Errorf("snapshot payload drifted: %d -> %d", payload, o1.PayloadBytes())
	}
	o2, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if o2.NumSets() != 1600 || o2.PayloadBytes() <= payload {
		t.Errorf("refreshed oracle: sets=%d payload=%d (was %d)", o2.NumSets(), o2.PayloadBytes(), payload)
	}
}

// TestOracleDoesNotPinItsStore shows that an oracle holds only its member
// index: the MemStore handed to newOracleFromStore, and a builder's store
// once the builder is dropped, are collected while the oracle stays
// reachable and keeps answering.
func TestOracleDoesNotPinItsStore(t *testing.T) {
	ig := karateIWC(t)
	fromStore, handed := oracleOverWeakStore(t, ig)
	fromBuilder, built := builderOracleOverWeakStore(t, ig)
	runtime.GC()
	runtime.GC()
	if handed.Value() != nil {
		t.Error("the store handed to newOracleFromStore is still reachable through its oracle")
	}
	if built.Value() != nil {
		t.Error("a dropped builder's store is still reachable through its oracle")
	}
	for _, o := range []*Oracle{fromStore, fromBuilder} {
		if got, err := o.Coverage([]graph.VertexID{0}); err != nil || got == 0 {
			t.Errorf("oracle coverage of vertex 0 = %d, %v after its store was collected", got, err)
		}
	}
}

// oracleOverWeakStore builds an oracle from a MemStore that nothing but the
// oracle could keep alive once this returns.
func oracleOverWeakStore(t *testing.T, ig *graph.InfluenceGraph) (*Oracle, weak.Pointer[MemStore]) {
	t.Helper()
	b := mustBuilder(t, ig, 2, 3)
	if err := b.AppendBatch(2000); err != nil {
		t.Fatal(err)
	}
	store := NewMemStore(builderSets(t, b))
	o, err := newOracleFromStore(ig.NumVertices(), diffusion.IC, 3, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	return o, weak.Make(store)
}

// builderOracleOverWeakStore finalizes a builder's oracle and drops the
// builder, leaving the oracle the only possible owner of the builder's store.
func builderOracleOverWeakStore(t *testing.T, ig *graph.InfluenceGraph) (*Oracle, weak.Pointer[MemStore]) {
	t.Helper()
	b := mustBuilder(t, ig, 2, 5)
	if err := b.AppendBatch(2000); err != nil {
		t.Fatal(err)
	}
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	return o, weak.Make(b.Store().(*MemStore))
}
