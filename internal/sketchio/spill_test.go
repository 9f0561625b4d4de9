package sketchio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// memoryBuiltSketch builds total sets in memory at the given worker count and
// returns the finalized v1 sketch bytes plus the builder.
func memoryBuiltSketch(t testing.TB, workers, total int, seed uint64) ([]byte, *core.SketchBuilder) {
	t.Helper()
	b := mustBuilder(t, karateGraph(t), workers, seed)
	appendSets(t, b, total)
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	return encodeOracle(t, o), b
}

// spillBuiltSketch runs a fixed-size BuildSpill in the given mode (negative
// keeps every set, otherwise none) and returns the finalized sketch bytes plus
// the store (closed via t.Cleanup).
func spillBuiltSketch(t testing.TB, path string, workers, total int, seed uint64, mode int64, maxBatch int) ([]byte, *SpillStore) {
	t.Helper()
	b, store, res, err := BuildSpill(context.Background(), path, karateGraph(t), diffusion.IC, workers, seed, mode,
		core.BuildTarget{MaxSets: total, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if res.Sets != total {
		t.Fatalf("spill build stopped at %d sets, want %d", res.Sets, total)
	}
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	return encodeOracle(t, o), store
}

// TestSpillMatchesMemoryAcrossBudgetsAndWorkers is the equivalence matrix:
// both store modes × workers {1, 4} must all produce a sketch byte-identical
// (same SHA-256) to the in-memory build, with identical ErrorBound values.
// BuildSpill's int64 picks the mode by its sign: budget 4096 keeps no set,
// -1 keeps every set.
func TestSpillMatchesMemoryAcrossBudgetsAndWorkers(t *testing.T) {
	const total, seed = 3000, 29
	memSketch, memBuilder := memoryBuiltSketch(t, 2, total, seed)
	wantSum := sha256.Sum256(memSketch)
	wantBound := memBuilder.ErrorBound(10, 0.01)

	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{4096, -1} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "build.spill")
				// A small batch cap forces many segments, so a store that
				// keeps no set reads many segments back from the file.
				sketch, store := spillBuiltSketch(t, path, workers, total, seed, budget, 256)
				if got := sha256.Sum256(sketch); got != wantSum {
					t.Error("spill sketch not byte-identical to in-memory sketch")
				}
				st := store.Stats()
				if st.SpillBytes <= 0 || st.Sets != total {
					t.Errorf("spill stats = %+v", st)
				}
				sb, err := core.NewSketchBuilderFromStore(karateGraph(t), diffusion.IC, workers, seed, store)
				if err != nil {
					t.Fatal(err)
				}
				if got := sb.ErrorBound(10, 0.01); got != wantBound {
					t.Errorf("spill ErrorBound = %v, in-memory = %v", got, wantBound)
				}
			})
		}
	}
}

// TestSpillOracleSameBytesAcrossTransposeWorkers finalizes one spill store,
// which keeps no set in memory and so decodes every segment back from the
// file, through builders of 1, 2 and 4 workers. Each Oracle() transposes the
// store on its builder's workers, and each must encode to the in-memory
// build's sketch bytes.
func TestSpillOracleSameBytesAcrossTransposeWorkers(t *testing.T) {
	const total, seed = 5000, 37
	want, _ := memoryBuiltSketch(t, 1, total, seed)
	path := filepath.Join(t.TempDir(), "build.spill")
	_, store := spillBuiltSketch(t, path, 2, total, seed, 0, 128)
	if len(store.segs) < 20 {
		t.Fatalf("spill build wrote %d segments, want many", len(store.segs))
	}
	for _, workers := range []int{1, 2, 4} {
		b, err := core.NewSketchBuilderFromStore(karateGraph(t), diffusion.IC, workers, seed, store)
		if err != nil {
			t.Fatal(err)
		}
		o, err := b.Oracle()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeOracle(t, o), want) {
			t.Errorf("workers=%d: spill oracle's sketch differs from the in-memory build's", workers)
		}
	}
}

// TestSpillBuildsTenTimesBudget: a spill build whose durable footprint is
// more than ten times a tiny 8 KiB memory figure completes with no decoded
// set resident, and produces a sketch with the same SHA-256 as the in-memory
// build.
func TestSpillBuildsTenTimesBudget(t *testing.T) {
	const (
		total  = 20000
		seed   = 31
		budget = 8 << 10 // 8 KiB — tiny against ~hundreds of KiB of RR sets
	)
	memSketch, _ := memoryBuiltSketch(t, 4, total, seed)
	path := filepath.Join(t.TempDir(), "big.spill")
	sketch, store := spillBuiltSketch(t, path, 4, total, seed, 0, 512)

	st := store.Stats()
	if st.SpillBytes < 10*budget {
		t.Fatalf("spill footprint %d bytes not ≥ 10× %d bytes — grow the build", st.SpillBytes, budget)
	}
	if st.MemBytes != 0 {
		t.Errorf("spill store keeps %d decoded bytes against %d spilled, want 0", st.MemBytes, st.SpillBytes)
	}
	if sha256.Sum256(sketch) != sha256.Sum256(memSketch) {
		t.Error("spill sketch not byte-identical to in-memory sketch")
	}

	// The file on disk doubles as a checkpoint: a plain checkpoint reader
	// must see exactly the built sets.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, sets, err := ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta != store.Meta() || len(sets) != total {
		t.Errorf("spill file as checkpoint: meta=%+v sets=%d", meta, len(sets))
	}
}

// TestSpillResumeMidBuildKill cancels a spill build mid-flight, reopens the
// same file, finishes the build, and requires the final sketch to be
// byte-identical to the uninterrupted in-memory build — the crash-resume
// guarantee of using the checkpoint format as the build medium.
func TestSpillResumeMidBuildKill(t *testing.T) {
	const total, seed = 6000, 37
	memSketch, _ := memoryBuiltSketch(t, 2, total, seed)
	path := filepath.Join(t.TempDir(), "killed.spill")

	ctx, cancel := context.WithCancel(context.Background())
	target := core.BuildTarget{
		MaxSets:  total,
		MaxBatch: 500,
		Progress: func(p core.BuildProgress) error {
			if p.Sets >= 2000 {
				cancel() // simulated kill between durable segments
			}
			return nil
		},
	}
	_, store, _, err := BuildSpill(ctx, path, karateGraph(t), diffusion.IC, 2, seed, 0, target)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	durable := store.NumSets()
	if durable < 2000 || durable >= total {
		t.Fatalf("killed build left %d durable sets", durable)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: same path, same identity, different worker count on purpose.
	b2, store2, res, err := BuildSpill(context.Background(), path, karateGraph(t), diffusion.IC, 4, seed, 0,
		core.BuildTarget{MaxSets: total, MaxBatch: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if res.Sets != total {
		t.Fatalf("resumed build stopped at %d sets", res.Sets)
	}
	o, err := b2.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOracle(t, o), memSketch) {
		t.Error("kill+resume spill sketch not byte-identical to in-memory sketch")
	}
}

// TestOpenSpillStoreTruncatesTornTail writes garbage after the last durable
// segment (a crash mid-append) and verifies reopening drops exactly the tail.
func TestOpenSpillStoreTruncatesTornTail(t *testing.T) {
	ig := karateGraph(t)
	meta := checkpointMetaFor(ig, diffusion.IC, 41)
	path := filepath.Join(t.TempDir(), "torn.spill")
	s, err := OpenSpillStore(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuilder(t, ig, 1, 41)
	appendSets(t, b, 300)
	if err := s.Append(setsRange(t, b, 0, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	goodSize := fileSize(t, path)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("SEGMtorn-segment-garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpillStore(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumSets() != 300 {
		t.Errorf("torn-tail reopen holds %d sets, want 300", s2.NumSets())
	}
	if got := fileSize(t, path); got != goodSize {
		t.Errorf("file size after reopen = %d, want %d", got, goodSize)
	}
	// Reads of the recovered prefix round-trip.
	if !setsEqual(storeSets(t, s2, 123, 124)[0], setsRange(t, b, 123, 124)[0]) {
		t.Error("recovered set 123 differs from builder's")
	}

	wrong := meta
	wrong.Seed++
	if _, err := OpenSpillStore(path, wrong, false); !errors.Is(err, ErrCheckpointMeta) {
		t.Errorf("mismatched meta: err = %v, want ErrCheckpointMeta", err)
	}
}

func setsEqual(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpillStoreConcurrentReadsWithAppend drives the RRStore concurrency
// contract on the disk-backed store, in both modes, under -race: short and
// whole-segment ForEach scans and stats race with one appender.
func TestSpillStoreConcurrentReadsWithAppend(t *testing.T) {
	ig := karateGraph(t)
	meta := checkpointMetaFor(ig, diffusion.IC, 43)
	b := mustBuilder(t, ig, 2, 43)
	appendSets(t, b, 2000)
	want := setsRange(t, b, 0, 2000)
	check := func(i int, set []graph.VertexID) error {
		if !setsEqual(set, want[i]) {
			return fmt.Errorf("set %d mismatch under concurrency", i)
		}
		return nil
	}
	for _, keepSets := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepSets=%v", keepSets), func(t *testing.T) {
			s, err := OpenSpillStore(filepath.Join(t.TempDir(), "conc.spill"), meta, keepSets)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Append(want[:1000]); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for from := 1000; from < 2000; from += 100 {
					if err := s.Append(want[from : from+100]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					if err := s.ForEach(i%1000, i%1000+1, check); err != nil {
						t.Error(err)
						return
					}
					_ = s.Stats()
				}
				if err := s.ForEach(0, 1000, check); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			if s.NumSets() != 2000 {
				t.Errorf("store holds %d sets, want 2000", s.NumSets())
			}
			if err := s.ForEach(0, 2000, check); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSpillStoreKeepsNoSets: a store that keeps no sets reports no decoded
// bytes resident after its appends, and reads back, through the file, sets
// equal to the builder's at every segment boundary.
func TestSpillStoreKeepsNoSets(t *testing.T) {
	ig := karateGraph(t)
	meta := checkpointMetaFor(ig, diffusion.IC, 47)
	s, err := OpenSpillStore(filepath.Join(t.TempDir(), "none.spill"), meta, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := mustBuilder(t, ig, 1, 47)
	appendSets(t, b, 3000)
	for from := 0; from < 3000; from += 250 {
		if err := s.Append(setsRange(t, b, from, from+250)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemBytes != 0 || st.Sets != 3000 || st.PayloadBytes <= 0 {
		t.Fatalf("stats after appends = %+v, want 3000 sets and no decoded bytes", st)
	}
	for _, i := range []int{0, 1, 249, 250, 1500, 2999} {
		if !setsEqual(storeSets(t, s, i, i+1)[0], setsRange(t, b, i, i+1)[0]) {
			t.Errorf("set %d read back differs from the builder's", i)
		}
	}
	if !reflect.DeepEqual(storeSets(t, s, 100, 2600), setsRange(t, b, 100, 2600)) {
		t.Error("sets [100, 2600) read back differ from the builder's")
	}
}

// segmentSizes returns the RR-set count of every segment of the v2 file at
// path, as Inspect reports them.
func segmentSizes(t testing.TB, path string) []int {
	t.Helper()
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Corrupt || info.Version != CheckpointVersion {
		t.Fatalf("inspect %s = %+v", path, info)
	}
	var sizes []int
	for _, sec := range info.Sections[1:] {
		sizes = append(sizes, sec.Sets)
	}
	return sizes
}

// roundSizes is the sets each BuildToTarget round appends building total sets
// in memory.
func roundSizes(t testing.TB, total int, seed uint64) []int {
	t.Helper()
	var rounds []int
	b := mustBuilder(t, karateGraph(t), 2, seed)
	if _, err := b.BuildToTarget(context.Background(), core.BuildTarget{MaxSets: total, Progress: func(p core.BuildProgress) error {
		if p.Appended > 0 {
			rounds = append(rounds, p.Appended)
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	return rounds
}

// spillBuildTo runs a fixed-size BuildSpill of total sets in the given mode
// into a fresh file and returns its path.
func spillBuildTo(t testing.TB, total int, seed uint64, mode int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "build.ckpt")
	_, store, res, err := BuildSpill(context.Background(), path, karateGraph(t), diffusion.IC, 2, seed, mode, core.BuildTarget{MaxSets: total})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Sets != total {
		t.Fatalf("build stopped at %d sets, want %d", res.Sets, total)
	}
	return path
}

// spillRoundsTotal reaches past 2^17 sets, so its last doubling round
// appends more than DefaultSpillMaxBatch sets.
const spillRoundsTotal = 200_000

// TestUnboundedBuildSpillWritesOneSegmentPerRound: a checkpointed build, whose
// store keeps every set, keeps BuildToTarget's doubling rounds, so its file
// holds one segment per round of the in-memory build — 1,024, 1,024, 2,048, …
// sets — including a round larger than DefaultSpillMaxBatch.
func TestUnboundedBuildSpillWritesOneSegmentPerRound(t *testing.T) {
	const seed = 59
	got := segmentSizes(t, spillBuildTo(t, spillRoundsTotal, seed, -1))
	want := roundSizes(t, spillRoundsTotal, seed)
	if !slices.Equal(got, want) {
		t.Errorf("unbounded build segments = %v, want the in-memory rounds %v", got, want)
	}
	if got[0] != core.DefaultMinSets || got[1] != core.DefaultMinSets || got[2] != 2*core.DefaultMinSets {
		t.Errorf("unbounded build segments start %v, want 1024, 1024, 2048", got[:3])
	}
	if slices.Max(got) <= DefaultSpillMaxBatch {
		t.Errorf("unbounded build segments %v never exceed DefaultSpillMaxBatch", got)
	}
}

// TestBoundedBuildSpillCapsSegments: a spill build, whose store keeps no
// sets, appends at most DefaultSpillMaxBatch sets per round, so no segment of
// its file is larger.
func TestBoundedBuildSpillCapsSegments(t *testing.T) {
	got := segmentSizes(t, spillBuildTo(t, spillRoundsTotal, 59, 0))
	total := 0
	for _, n := range got {
		total += n
	}
	if total != spillRoundsTotal || slices.Max(got) != DefaultSpillMaxBatch {
		t.Errorf("bounded build segments = %v (%d sets), want %d sets in segments of at most %d",
			got, total, spillRoundsTotal, DefaultSpillMaxBatch)
	}
}

// TestUnboundedSpillStoreDecodesOnce: reopening a file into a store that
// keeps its sets decodes each durable segment exactly once, during the open
// scan, and finalizing oracles over it decodes nothing more. A store that
// keeps none decodes nothing at open and reads every segment back on each
// transpose pass.
func TestUnboundedSpillStoreDecodesOnce(t *testing.T) {
	const total, seed = 5000, 61
	ig := karateGraph(t)
	path := spillBuildTo(t, total, seed, -1)
	meta := checkpointMetaFor(ig, diffusion.IC, seed)
	want, _ := memoryBuiltSketch(t, 1, total, seed)

	oracleTwice := func(s *SpillStore) {
		t.Helper()
		for _, workers := range []int{1, 4} {
			b, err := core.NewSketchBuilderFromStore(ig, diffusion.IC, workers, seed, s)
			if err != nil {
				t.Fatal(err)
			}
			o, err := b.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeOracle(t, o), want) {
				t.Errorf("workers=%d: reopened store's oracle differs from the in-memory build's", workers)
			}
		}
	}

	s, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	segs := len(s.segs)
	if got := s.segmentDecodes(); segs < 3 || got != segs {
		t.Fatalf("opening a store that keeps its sets decoded %d times for %d segments", got, segs)
	}
	oracleTwice(s)
	if got := s.segmentDecodes(); got != segs {
		t.Errorf("two Oracle() calls over a store that keeps its sets decoded %d more segments", got-segs)
	}

	spill, err := OpenSpillStore(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	if got := spill.segmentDecodes(); got != 0 {
		t.Fatalf("opening a store that keeps no sets decoded %d segments", got)
	}
	oracleTwice(spill)
	if got := spill.segmentDecodes(); got < 2*segs {
		t.Errorf("two Oracle() calls over a store that keeps no sets decoded %d segments, want at least %d", got, 2*segs)
	}
}
