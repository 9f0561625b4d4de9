package imdist

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"
)

// sketchBytes renders an oracle's on-disk sketch, the byte-identity yardstick
// of the incremental-builder contract.
func sketchBytes(t testing.TB, o *InfluenceOracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.SaveSketch(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSketchBuilderMatchesOneShot pins the public incremental-build contract:
// a sketch grown batch by batch — at any worker count — is byte-identical on
// disk to the one-shot NewInfluenceOracle build of the same total and seed.
func TestSketchBuilderMatchesOneShot(t *testing.T) {
	ig := karateUC(t)
	oneShot, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 4000, Seed: 17, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := sketchBytes(t, oneShot)
	for _, workers := range []int{1, 4} {
		b, err := ig.NewSketchBuilder(OracleOptions{Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{100, 900, 3000} {
			if err := b.AppendBatch(m); err != nil {
				t.Fatal(err)
			}
		}
		if b.NumRRSets() != 4000 {
			t.Fatalf("workers=%d: builder has %d sets, want 4000", workers, b.NumRRSets())
		}
		o, err := b.Oracle()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sketchBytes(t, o), want) {
			t.Errorf("workers=%d: incremental sketch not byte-identical to one-shot build", workers)
		}
	}
}

// TestSketchBuilderCheckpointResume snapshots a build mid-flight through the
// public Checkpoint/ResumeSketchBuilder pair and checks the finished resumed
// sketch is byte-identical to the uninterrupted one.
func TestSketchBuilderCheckpointResume(t *testing.T) {
	ig := karateUC(t)
	b, err := ig.NewSketchBuilder(OracleOptions{Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(1200); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := b.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumed, err := ig.ResumeSketchBuilder(&ckpt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumRRSets() != 1200 {
		t.Fatalf("resumed at %d sets, want 1200", resumed.NumRRSets())
	}
	for _, bb := range []*SketchBuilder{b, resumed} {
		if err := bb.AppendBatch(1800); err != nil {
			t.Fatal(err)
		}
	}
	bo, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := resumed.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sketchBytes(t, bo), sketchBytes(t, ro)) {
		t.Error("resumed sketch differs from uninterrupted build")
	}
}

// TestBuildSketchToTarget checks the adaptive entry point: the bound is met
// below the cap, and the error estimate shrinks as the sketch grows.
func TestBuildSketchToTarget(t *testing.T) {
	ig := karateUC(t)
	oracle, sum, err := ig.BuildSketchToTarget(OracleOptions{Seed: 7, Workers: -1}, 0.25, 0.01, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Converged || sum.Bound > 0.25 {
		t.Fatalf("summary = %+v, want converged with bound <= 0.25", sum)
	}
	if oracle.NumRRSets() != sum.RRSets || sum.RRSets >= 1<<20 {
		t.Errorf("oracle has %d sets, summary %d (cap 1<<20)", oracle.NumRRSets(), sum.RRSets)
	}

	// ErrorBound decreases with more sets.
	b, err := ig.NewSketchBuilder(OracleOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.ErrorBound(10, 0.01); !math.IsInf(got, 1) {
		t.Errorf("empty builder bound = %v, want +Inf", got)
	}
	if err := b.AppendBatch(1000); err != nil {
		t.Fatal(err)
	}
	at1k := b.ErrorBound(10, 0.01)
	if err := b.AppendBatch(15000); err != nil {
		t.Fatal(err)
	}
	if at16k := b.ErrorBound(10, 0.01); at16k >= at1k {
		t.Errorf("bound did not shrink: %v at 1k sets, %v at 16k", at1k, at16k)
	}
}

// TestBuildSketchWithCheckpointFile runs the file-backed checkpointed build
// and confirms the finished sketch loads and answers like a direct build.
func TestBuildSketchWithCheckpointFile(t *testing.T) {
	ig := karateUC(t)
	path := filepath.Join(t.TempDir(), "build.ckpt")
	var rounds int
	oracle, sum, err := ig.BuildSketchWithCheckpoint(context.Background(), path, OracleOptions{Seed: 31, Workers: 2},
		BuildOptions{MaxSets: 3000, Progress: func(BuildProgress) { rounds++ }})
	if err != nil {
		t.Fatal(err)
	}
	if sum.RRSets != 3000 || rounds == 0 {
		t.Fatalf("summary = %+v after %d rounds", sum, rounds)
	}
	direct, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 3000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sketchBytes(t, oracle), sketchBytes(t, direct)) {
		t.Error("checkpointed build sketch differs from direct build")
	}
	// The checkpoint file verifies cleanly and records every set.
	fi, err := InspectSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Corrupt || fi.RRSets != 3000 || fi.Version != 2 {
		t.Errorf("checkpoint inspect = %+v", fi)
	}
}

// TestBuildSketchWithCheckpointSpill runs the same checkpointed build in
// spill mode, which keeps no set in memory, and requires the result to be
// byte-identical to the in-memory build — the public face of the
// larger-than-RAM build pipeline.
func TestBuildSketchWithCheckpointSpill(t *testing.T) {
	ig := karateUC(t)
	path := filepath.Join(t.TempDir(), "build.spill")
	var spilled int64
	oracle, sum, err := ig.BuildSketchWithCheckpoint(context.Background(), path, OracleOptions{Seed: 31, Workers: 2},
		BuildOptions{
			MaxSets:  3000,
			Spill:    true,
			Progress: func(p BuildProgress) { spilled = p.SpillBytes },
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.RRSets != 3000 {
		t.Fatalf("summary = %+v", sum)
	}
	if spilled <= 0 {
		t.Error("progress never reported spill bytes")
	}
	direct, err := ig.NewInfluenceOracleWithOptions(OracleOptions{RRSets: 3000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sketchBytes(t, oracle), sketchBytes(t, direct)) {
		t.Error("spill build sketch differs from in-memory build")
	}
	// The spill file is a valid v2 checkpoint of the full build.
	fi, err := InspectSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Corrupt || fi.RRSets != 3000 || fi.Version != 2 {
		t.Errorf("spill file inspect = %+v", fi)
	}
}
