package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"imdist"
	"imdist/internal/sketchio"
)

// TestPipelineSketchMatchesInMemoryOracle runs the imsketch CLI end to end
// and loads the artifact exactly the way imserve does (sketchio.ReadFile):
// the loaded sketch must return byte-identical GreedySeeds and Influence to
// an in-memory oracle built with the same parameters.
func TestPipelineSketchMatchesInMemoryOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "karate.sketch")
	err := run([]string{
		"-dataset", "Karate", "-prob", "uc0.1",
		"-rr", "20000", "-seed", "7", "-workers", "2",
		"-out", path,
	})
	if err != nil {
		t.Fatal(err)
	}

	network, err := imdist.LoadDataset("Karate")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := network.AssignProbabilities("uc0.1", 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ig.NewInfluenceOracleWithOptions(imdist.OracleOptions{RRSets: 20000, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	got, err := sketchio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 8} {
		gotSeeds := make([]int, 0, k)
		for _, v := range got.GreedySeeds(k) {
			gotSeeds = append(gotSeeds, int(v))
		}
		if !reflect.DeepEqual(gotSeeds, want.GreedySeeds(k)) {
			t.Fatalf("GreedySeeds(%d): sketch %v != in-memory %v", k, gotSeeds, want.GreedySeeds(k))
		}
	}
	wantInf, err := want.Influence([]int{0, 33})
	if err != nil {
		t.Fatal(err)
	}
	gotInf, err := got.Influence([]int32{0, 33})
	if err != nil {
		t.Fatal(err)
	}
	if gotInf != wantInf {
		t.Errorf("Influence({0,33}): sketch %v != in-memory %v", gotInf, wantInf)
	}

	if err := run([]string{"-info", path}); err != nil {
		t.Errorf("-info failed: %v", err)
	}
}

func TestRunRejectsMissingFlags(t *testing.T) {
	if err := run([]string{"-dataset", "Karate"}); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run([]string{"-out", "x.sketch"}); err == nil {
		t.Error("missing -graph/-dataset accepted")
	}
	if err := run([]string{"-dataset", "Karate", "-out", "x.sketch", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	missing := filepath.Join(t.TempDir(), "none.ckpt")
	if err := run([]string{"-dataset", "Karate", "-out", "x.sketch", "-checkpoint", missing, "-resume"}); err == nil {
		t.Error("-resume with nonexistent checkpoint accepted")
	}
}

// TestAdaptiveBuildWithReport drives a -target-eps build through the CLI and
// checks the sketch converged below the cap and the JSON report records the
// build trajectory data point.
func TestAdaptiveBuildWithReport(t *testing.T) {
	dir := t.TempDir()
	sketch := filepath.Join(dir, "karate.sketch")
	report := filepath.Join(dir, "build.json")
	err := run([]string{
		"-dataset", "Karate", "-prob", "iwc", "-seed", "7", "-workers", "2",
		"-target-eps", "0.2", "-k", "4", "-rr", "2000000",
		"-out", sketch, "-report", report,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := imdist.LoadSketchFile(sketch)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.NumRRSets() >= 2000000 {
		t.Errorf("adaptive build burned the whole cap: %d sets", oracle.NumRRSets())
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep buildReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Sets != oracle.NumRRSets() || rep.Bound <= 0 || rep.Bound > 0.2 {
		t.Errorf("report = %+v, want converged at %d sets with bound in (0, 0.2]", rep, oracle.NumRRSets())
	}
	if rep.Bytes == 0 || rep.Vertices != 34 {
		t.Errorf("report metadata = %+v", rep)
	}
}

// TestCheckpointResumeBuildsIdenticalSketch runs the same fixed-size build
// three ways — straight, checkpointed, and checkpointed-in-two-runs (the
// first capped short, then resumed to full size) — and requires all three
// sketch files to be byte-identical.
func TestCheckpointResumeBuildsIdenticalSketch(t *testing.T) {
	dir := t.TempDir()
	straight := filepath.Join(dir, "straight.sketch")
	common := []string{"-dataset", "Karate", "-prob", "uc0.1", "-seed", "5", "-workers", "2", "-rr", "8000"}
	if err := run(append(common, "-out", straight)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(straight)
	if err != nil {
		t.Fatal(err)
	}

	// One checkpointed run.
	oneGo := filepath.Join(dir, "onego.sketch")
	if err := run(append(common, "-out", oneGo, "-checkpoint", filepath.Join(dir, "onego.ckpt"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(oneGo); !bytes.Equal(got, want) {
		t.Error("checkpointed build differs from straight build")
	}

	// Interrupted run: cap at 3000 first, then resume to the full 8000.
	ckpt := filepath.Join(dir, "resumed.ckpt")
	partial := filepath.Join(dir, "partial.sketch")
	first := []string{"-dataset", "Karate", "-prob", "uc0.1", "-seed", "5", "-workers", "1", "-rr", "3000",
		"-out", partial, "-checkpoint", ckpt}
	if err := run(first); err != nil {
		t.Fatal(err)
	}
	// Re-running without -resume must refuse to touch the existing file.
	resumed := filepath.Join(dir, "resumed.sketch")
	if err := run(append(common, "-out", resumed, "-checkpoint", ckpt)); err == nil {
		t.Fatal("existing checkpoint extended without -resume")
	}
	if err := run(append(common, "-out", resumed, "-checkpoint", ckpt, "-resume", "-progress")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(resumed); !bytes.Equal(got, want) {
		t.Error("resumed build differs from straight build")
	}
	// The checkpoint itself must verify cleanly under -info.
	if err := run([]string{"-info", ckpt}); err != nil {
		t.Errorf("-info on checkpoint: %v", err)
	}
}

// TestSpillBuildMatchesStraight runs the same fixed-size build straight and
// with -spill: the sketches must be byte-identical, the report must record
// the spill footprint, and the scratch spill file must be gone once the
// sketch is written.
func TestSpillBuildMatchesStraight(t *testing.T) {
	dir := t.TempDir()
	straight := filepath.Join(dir, "straight.sketch")
	common := []string{"-dataset", "Karate", "-prob", "iwc", "-seed", "9", "-workers", "2", "-rr", "6000"}
	if err := run(append(common, "-out", straight)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(straight)
	if err != nil {
		t.Fatal(err)
	}

	spilled := filepath.Join(dir, "spilled.sketch")
	report := filepath.Join(dir, "spill.json")
	if err := run(append(common, "-out", spilled, "-spill", "-report", report)); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(spilled); !bytes.Equal(got, want) {
		t.Error("spill build differs from straight build")
	}
	if _, err := os.Stat(spilled + ".spill"); !os.IsNotExist(err) {
		t.Errorf("auto spill file not cleaned up: stat err = %v", err)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep buildReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Spill || rep.SpillBytes <= 0 {
		t.Errorf("report spill fields = %+v", rep)
	}
	if rep.Sets != 6000 {
		t.Errorf("report sets = %d, want 6000", rep.Sets)
	}

	// An explicit -checkpoint is the user's file: it survives the build and
	// verifies as a full checkpoint of every set.
	kept := filepath.Join(dir, "kept.spill")
	keptOut := filepath.Join(dir, "kept.sketch")
	if err := run(append(common, "-out", keptOut, "-spill", "-checkpoint", kept)); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(keptOut); !bytes.Equal(got, want) {
		t.Error("spill build with explicit checkpoint differs from straight build")
	}
	if err := run([]string{"-info", kept}); err != nil {
		t.Errorf("-info on kept spill file: %v", err)
	}
	// The memory-budget flag is gone; passing it is a usage error.
	if err := run(append(common, "-out", spilled, "-spill", "-mem-budget", "4KiB")); err == nil {
		t.Error("removed -mem-budget flag accepted")
	}
}

// TestInfoDetectsCorruption flips one payload byte of a valid sketch and
// requires -info to verify section CRCs and fail loudly.
func TestInfoDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "karate.sketch")
	if err := run([]string{"-dataset", "Karate", "-rr", "5000", "-seed", "3", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", path}); err != nil {
		t.Fatalf("-info on intact sketch: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", path}); err == nil {
		t.Error("-info accepted a corrupt sketch")
	}
}
