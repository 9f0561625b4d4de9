package sketchio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/workload"
)

func karateGraph(t testing.TB) *graph.InfluenceGraph {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func mustBuilder(t testing.TB, ig *graph.InfluenceGraph, workers int, seed uint64) *core.SketchBuilder {
	t.Helper()
	b, err := core.NewSketchBuilder(ig, diffusion.IC, workers, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func appendSets(t testing.TB, b *core.SketchBuilder, m int) {
	t.Helper()
	if err := b.AppendBatch(m); err != nil {
		t.Fatal(err)
	}
}

// setsRange snapshots the builder's RR sets in [from, to) by streaming its
// store.
func setsRange(t testing.TB, b *core.SketchBuilder, from, to int) [][]graph.VertexID {
	t.Helper()
	return storeSets(t, b.Store(), from, to)
}

// storeSets snapshots a store's RR sets in [from, to) through ForEach,
// cloning each: a set is valid only until the callback returns.
func storeSets(t testing.TB, s core.RRStore, from, to int) [][]graph.VertexID {
	t.Helper()
	sets := make([][]graph.VertexID, 0, to-from)
	if err := s.ForEach(from, to, func(_ int, set []graph.VertexID) error {
		sets = append(sets, slices.Clone(set))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sets
}

// encodeOracle renders a builder's finished sketch as sketch bytes — the
// byte-identity yardstick of the acceptance criteria.
func encodeOracle(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip snapshots a mid-build builder with WriteCheckpoint,
// resumes it with ResumeBuilder, finishes both, and requires the resumed
// build's on-disk sketch to be byte-identical to the uninterrupted one.
func TestCheckpointRoundTrip(t *testing.T) {
	ig := karateGraph(t)
	const seed = 21
	b := mustBuilder(t, ig, 2, seed)
	appendSets(t, b, 1500)

	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, b); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeBuilder(bytes.NewReader(ckpt.Bytes()), ig, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumSets() != 1500 || resumed.Seed() != seed || resumed.Model() != diffusion.IC {
		t.Fatalf("resumed builder state: sets=%d seed=%d model=%v", resumed.NumSets(), resumed.Seed(), resumed.Model())
	}
	appendSets(t, b, 2500)
	appendSets(t, resumed, 2500)

	bo, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := resumed.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := core.NewOracleParallelSeeded(ig, diffusion.IC, 4000, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeOracle(t, oneShot)
	if !bytes.Equal(encodeOracle(t, bo), want) {
		t.Error("uninterrupted builder sketch not byte-identical to one-shot build")
	}
	if !bytes.Equal(encodeOracle(t, ro), want) {
		t.Error("checkpoint-resumed sketch not byte-identical to one-shot build")
	}
}

func TestCheckpointEmptyBuilder(t *testing.T) {
	ig := karateGraph(t)
	b := mustBuilder(t, ig, 1, 5)
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, b); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeBuilder(bytes.NewReader(ckpt.Bytes()), ig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumSets() != 0 {
		t.Errorf("empty checkpoint resumed with %d sets", resumed.NumSets())
	}
}

func TestResumeBuilderRejectsWrongGraph(t *testing.T) {
	ig := karateGraph(t)
	b := mustBuilder(t, ig, 1, 5)
	appendSets(t, b, 10)
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, b); err != nil {
		t.Fatal(err)
	}
	gb := graph.NewBuilder(3)
	if err := gb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	small, err := graph.NewInfluenceGraph(gb.Build(), func(_, _ graph.VertexID) float64 { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeBuilder(bytes.NewReader(ckpt.Bytes()), small, 1); !errors.Is(err, ErrCheckpointMeta) {
		t.Errorf("wrong-graph resume: err = %v, want ErrCheckpointMeta", err)
	}
}

// TestResumeBuilderRejectsDifferentProbabilities is the regression test for
// the graph fingerprint: the same dataset under a different edge-probability
// model has identical n, model and seed, and without the fingerprint a
// resume would silently splice RR sets from two different influence graphs.
func TestResumeBuilderRejectsDifferentProbabilities(t *testing.T) {
	ig := karateGraph(t) // IWC
	b := mustBuilder(t, ig, 1, 7)
	appendSets(t, b, 50)
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, b); err != nil {
		t.Fatal(err)
	}
	uc, err := workload.Assign(data.Karate(), workload.UC01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeBuilder(bytes.NewReader(ckpt.Bytes()), uc, 1); !errors.Is(err, ErrCheckpointMeta) {
		t.Errorf("different-prob resume: err = %v, want ErrCheckpointMeta", err)
	}
	// The file-level open refuses the same way.
	path := filepath.Join(t.TempDir(), "p.ckpt")
	if err := os.WriteFile(path, ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSpillStore(path, checkpointMetaFor(uc, diffusion.IC, 7), true); !errors.Is(err, ErrCheckpointMeta) {
		t.Errorf("different-prob open: err = %v, want ErrCheckpointMeta", err)
	}
}

func TestReadCheckpointRejectsDamage(t *testing.T) {
	ig := karateGraph(t)
	b := mustBuilder(t, ig, 1, 9)
	appendSets(t, b, 200)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	truncated := raw[:len(raw)-7]
	if _, _, err := ReadCheckpoint(bytes.NewReader(truncated)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated checkpoint: err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-20] ^= 0x40
	if _, _, err := ReadCheckpoint(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit-flipped checkpoint: err = %v, want checksum/corrupt", err)
	}
	sketch := encodeOracle(t, mustSmallOracle(t))
	if _, _, err := ReadCheckpoint(bytes.NewReader(sketch)); !errors.Is(err, ErrVersion) {
		t.Errorf("sketch as checkpoint: err = %v, want ErrVersion", err)
	}
}

func mustSmallOracle(t testing.TB) *core.Oracle {
	t.Helper()
	o, err := core.NewOracleParallelSeeded(karateGraph(t), diffusion.IC, 50, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOpenCheckpointAppendResume exercises the on-disk append-only file
// through an unbounded SpillStore, the checkpoint writer: segments accumulate
// across Append calls, a reopen holds exactly the durable sets, and a
// mismatched build identity is refused.
func TestOpenCheckpointAppendResume(t *testing.T) {
	ig := karateGraph(t)
	path := filepath.Join(t.TempDir(), "build.ckpt")
	meta := checkpointMetaFor(ig, diffusion.IC, 17)

	s, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSets() != 0 {
		t.Fatalf("fresh checkpoint holds %d sets", s.NumSets())
	}
	b := mustBuilder(t, ig, 2, 17)
	appendSets(t, b, 700)
	if err := s.Append(setsRange(t, b, 0, 700)); err != nil {
		t.Fatal(err)
	}
	appendSets(t, b, 300)
	if err := s.Append(setsRange(t, b, 700, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(nil); err != nil { // no-op segment
		t.Fatal(err)
	}
	if s.NumSets() != 1000 {
		t.Fatalf("store reports %d sets, want 1000", s.NumSets())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumSets() != 1000 || len(s2.segs) != 2 {
		t.Fatalf("reopened checkpoint reports %d sets in %d segments, want 1000 in 2", s2.NumSets(), len(s2.segs))
	}
	if !reflect.DeepEqual(storeSets(t, s2, 0, 1000), setsRange(t, b, 0, 1000)) {
		t.Error("reopened checkpoint sets differ from the builder's")
	}

	wrong := meta
	wrong.Seed = 18
	if _, err := OpenSpillStore(path, wrong, true); !errors.Is(err, ErrCheckpointMeta) {
		t.Errorf("mismatched meta: err = %v, want ErrCheckpointMeta", err)
	}
}

// TestOpenCheckpointTruncatesTornTail simulates a crash mid-append: the file
// ends in half a segment. Reopening must recover the intact prefix and
// truncate the garbage so the resumed build can re-append cleanly.
func TestOpenCheckpointTruncatesTornTail(t *testing.T) {
	ig := karateGraph(t)
	path := filepath.Join(t.TempDir(), "build.ckpt")
	meta := checkpointMetaFor(ig, diffusion.IC, 23)
	s, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuilder(t, ig, 1, 23)
	appendSets(t, b, 400)
	if err := s.Append(setsRange(t, b, 0, 250)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	goodSize := fileSize(t, path)

	// A torn segment: a valid header claiming more payload than follows.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSegment(f, setsRange(t, b, 250, 400)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, goodSize+30); err != nil { // mid-segment-header+6
		t.Fatal(err)
	}

	s2, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumSets() != 250 || len(storeSets(t, s2, 0, s2.NumSets())) != 250 {
		t.Fatalf("torn-tail recovery kept %d sets, want 250", s2.NumSets())
	}
	if got := fileSize(t, path); got != goodSize {
		t.Errorf("file size after recovery = %d, want %d (torn tail truncated)", got, goodSize)
	}
	// The recovered file must accept appends again and line up with the
	// deterministic sequence.
	if err := s2.Append(setsRange(t, b, 250, 400)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenSpillStore(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !reflect.DeepEqual(storeSets(t, s3, 0, s3.NumSets()), setsRange(t, b, 0, 400)) {
		t.Error("post-recovery appended checkpoint differs from builder sequence")
	}
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestBuildWithCheckpointResumes runs an unbounded BuildSpill — a
// checkpointed in-memory build — twice: the first run is cancelled partway,
// the second continues from the checkpoint to the cap, and the result must be
// byte-identical to the one-shot build of the same total.
func TestBuildWithCheckpointResumes(t *testing.T) {
	ig := karateGraph(t)
	path := filepath.Join(t.TempDir(), "karate.ckpt")
	const seed = 31
	const total = 6000

	ctx, cancel := context.WithCancel(context.Background())
	_, store, _, err := BuildSpill(ctx, path, ig, diffusion.IC, 2, seed, -1, core.BuildTarget{
		MaxSets: total,
		MinSets: 512,
		Progress: func(p core.BuildProgress) error {
			if p.Sets >= 1024 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want context.Canceled", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	durable, err := OpenSpillStore(path, checkpointMetaFor(ig, diffusion.IC, seed), true)
	if err != nil {
		t.Fatal(err)
	}
	if durable.NumSets() == 0 {
		t.Fatal("cancelled run left no durable progress")
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	b, store, res, err := BuildSpill(context.Background(), path, ig, diffusion.IC, 4, seed, -1, core.BuildTarget{MaxSets: total})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if res.Sets != total {
		t.Fatalf("resumed run finished at %d sets, want %d", res.Sets, total)
	}
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := core.NewOracleParallelSeeded(ig, diffusion.IC, total, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOracle(t, o), encodeOracle(t, oneShot)) {
		t.Error("checkpoint-resumed build not byte-identical to one-shot build")
	}
}

func TestInspectV1AndV2(t *testing.T) {
	dir := t.TempDir()
	o := mustSmallOracle(t)
	checkSketch := func(path string, version int, names ...string) {
		t.Helper()
		info, err := Inspect(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Corrupt || info.Version != version || info.NumSets != 50 {
			t.Fatalf("v%d inspect = %+v", version, info)
		}
		var got []string
		var total int64
		for _, s := range info.Sections {
			if !s.OK {
				t.Errorf("v%d section %s not OK: %s", version, s.Name, s.Detail)
			}
			got = append(got, s.Name)
			total += s.Size
		}
		if !reflect.DeepEqual(got, names) {
			t.Errorf("v%d sections = %v, want %v", version, got, names)
		}
		if total != info.Size {
			t.Errorf("v%d section sizes sum to %d, file is %d", version, total, info.Size)
		}
	}

	// v3 sketch: header, offsets, entries, checksum.
	sketchPath := filepath.Join(dir, "k.sketch")
	if err := WriteFile(sketchPath, o); err != nil {
		t.Fatal(err)
	}
	checkSketch(sketchPath, Version, "header", "offsets", "entries", "checksum")

	// Read-only v1 sketch: header, payload, checksum.
	v1Path := filepath.Join(dir, "k1.sketch")
	if err := os.WriteFile(v1Path, encodeV1(t, o), 0o644); err != nil {
		t.Fatal(err)
	}
	checkSketch(v1Path, versionV1, "header", "payload", "checksum")

	// v2 checkpoint with two segments.
	ig := karateGraph(t)
	ckptPath := filepath.Join(dir, "k.ckpt")
	s, err := OpenSpillStore(ckptPath, checkpointMetaFor(ig, diffusion.IC, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuilder(t, ig, 1, 3)
	appendSets(t, b, 60)
	if err := s.Append(setsRange(t, b, 0, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(setsRange(t, b, 40, b.NumSets())); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Corrupt || info.Version != CheckpointVersion || info.NumSets != 60 {
		t.Fatalf("v2 inspect = %+v", info)
	}
	if len(info.Sections) != 3 || info.Sections[1].Sets != 40 || info.Sections[2].Sets != 20 {
		t.Fatalf("v2 sections = %+v", info.Sections)
	}
}

func TestInspectReportsCorruption(t *testing.T) {
	dir := t.TempDir()
	o := mustSmallOracle(t)
	path := filepath.Join(dir, "bad.sketch")
	if err := WriteFile(path, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-30] ^= 0x01 // flip a payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Corrupt {
		t.Fatal("bit-flipped sketch not reported corrupt")
	}

	// A header claiming 2^31-1 vertices over a short file fails at the
	// offsets section, before anything the size of the claim is allocated.
	binary.LittleEndian.PutUint64(raw[16:], math.MaxInt32)
	if err := os.WriteFile(path, raw[:headerLen+100], 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err = Inspect(path); err != nil {
		t.Fatal(err)
	}
	if !info.Corrupt || len(info.Sections) != 2 || info.Sections[1].Name != "offsets" || info.Sections[1].OK {
		t.Fatalf("sketch claiming 2^31-1 vertices: sections %+v", info.Sections)
	}

	// Not a sketch at all (long enough to reach the magic check).
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, bytes.Repeat([]byte("junk"), 20), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(junk); !errors.Is(err, ErrBadMagic) {
		t.Errorf("junk file: err = %v, want ErrBadMagic", err)
	}
	// Too short to even classify.
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("IMSK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(short); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short file: err = %v, want ErrCorrupt", err)
	}
}
