package experiment

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"imdist/internal/data"
	"imdist/internal/estimator"
	"imdist/internal/workload"
)

func unitEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(Unit)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestScaleForPresets(t *testing.T) {
	for _, p := range []Preset{Unit, Small, Paper} {
		s, err := ScaleFor(p)
		if err != nil {
			t.Fatalf("ScaleFor(%s): %v", p, err)
		}
		if s.Trials <= 0 || s.OracleSets <= 0 || s.MaxExpSim <= 0 || s.MaxExpRIS < s.MaxExpSim {
			t.Errorf("ScaleFor(%s) = %+v looks inconsistent", p, s)
		}
	}
	if _, err := ScaleFor(Preset("huge")); !errors.Is(err, ErrUnknownPreset) {
		t.Errorf("unknown preset err = %v", err)
	}
	// The paper preset must match the paper's protocol.
	s, _ := ScaleFor(Paper)
	if s.Trials != 1000 || s.MaxExpSim != 16 || s.MaxExpRIS != 24 || s.OracleSets != 10_000_000 {
		t.Errorf("paper preset = %+v, does not match the paper's protocol", s)
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table3", "table4", "table5", "table6", "table7", "table8", "table9",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	}
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("registry is missing %s", id)
		}
	}
	for _, e := range Registry() {
		if e.Run == nil || e.ID == "" || e.Title == "" || e.Artefact == "" {
			t.Errorf("incomplete experiment entry %+v", e)
		}
	}
}

func TestLookupAndRunUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a non-existent experiment")
	}
	env := unitEnv(t)
	var buf bytes.Buffer
	if err := Run(&buf, "nope", env); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Run(nope) err = %v", err)
	}
}

func TestEnvCaching(t *testing.T) {
	env := unitEnv(t)
	g1, err := env.InfluenceGraph(data.KarateSet, workload.UC01)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := env.InfluenceGraph(data.KarateSet, workload.UC01)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("InfluenceGraph not cached")
	}
	o1, err := env.Oracle(data.KarateSet, workload.UC01)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := env.Oracle(data.KarateSet, workload.UC01)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Error("Oracle not cached")
	}
}

func TestLevelsAndTrials(t *testing.T) {
	s, _ := ScaleFor(Unit)
	if got := levelsFor(s, estimator.RIS); got[len(got)-1] != 1<<s.MaxExpRIS {
		t.Errorf("RIS levels top out at %d", got[len(got)-1])
	}
	if got := levelsFor(s, estimator.Oneshot); got[len(got)-1] != 1<<s.MaxExpSim {
		t.Errorf("Oneshot levels top out at %d", got[len(got)-1])
	}
	if trialsFor(s, data.KarateSet) != s.Trials {
		t.Error("small dataset should use the small-instance trial count")
	}
	if trialsFor(s, data.SocPokec) != s.TrialsLarge {
		t.Error("web-scale dataset should use the large-instance trial count")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if fmtRatio(0.016) != "0.016" {
		t.Errorf("fmtRatio(0.016) = %q", fmtRatio(0.016))
	}
	if fmtRatio(3.4) != "3.4" {
		t.Errorf("fmtRatio(3.4) = %q", fmtRatio(3.4))
	}
	if fmtRatio(384) != "384" {
		t.Errorf("fmtRatio(384) = %q", fmtRatio(384))
	}
	if fmtMissing(false, "%.1f", 3) != "-" {
		t.Error("fmtMissing should print a dash when the value is absent")
	}
	if fmtMissing(true, "%.1f", 3) != "3.0" {
		t.Error("fmtMissing should format present values")
	}
}

// update rewrites the golden files of TestRunEveryExperimentUnitPreset:
// go test ./internal/experiment -run TestRunEveryExperimentUnitPreset -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestRunEveryExperimentUnitPreset pins every registered experiment at the
// unit preset: its output must equal testdata/<id>.golden byte for byte. The
// files, each followed by a blank line in registry order, are what
// `imexp -all -preset unit` prints. The run uses 3 workers; since Workers
// changes speed and never an answer, the same files pin every worker count.
func TestRunEveryExperimentUnitPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment golden test skipped in -short mode")
	}
	env := unitEnv(t)
	env.Workers = 3
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, e.ID, env); err != nil {
				t.Fatalf("experiment %s failed: %v", e.ID, err)
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("experiment %s output differs from %s:\n got:\n%s\nwant:\n%s", e.ID, path, buf.Bytes(), want)
			}
		})
	}
}

// TestTable8RelationHoldsOnKarate verifies the paper's headline traversal-
// cost relation (Oneshot ≈ m/m̃ · Snapshot ≈ n · RIS for edges, 1 : 1 : 1/n
// for vertices) using the same code path as Table 8.
func TestTable8RelationHoldsOnKarate(t *testing.T) {
	env := unitEnv(t)
	rows, err := env.traversalRows(data.KarateSet, workload.UC01)
	if err != nil {
		t.Fatal(err)
	}
	byApproach := map[estimator.Approach]struct{ v, e float64 }{}
	for _, r := range rows {
		byApproach[r.Approach] = struct{ v, e float64 }{r.VerticesExamined, r.EdgesExamined}
	}
	one, snap, ris := byApproach[estimator.Oneshot], byApproach[estimator.Snapshot], byApproach[estimator.RIS]
	// Vertex costs of Oneshot and Snapshot agree within noise.
	if ratio := one.v / snap.v; ratio < 0.6 || ratio > 1.7 {
		t.Errorf("Oneshot/Snapshot vertex ratio = %v, want approx 1", ratio)
	}
	// Snapshot examines roughly p=0.1 of the edges Oneshot does on uc0.1.
	if ratio := snap.e / one.e; ratio > 0.4 {
		t.Errorf("Snapshot/Oneshot edge ratio = %v, want approx 0.1", ratio)
	}
	// RIS vertex cost is roughly 1/n of Oneshot's.
	if ratio := one.v / ris.v; ratio < 5 {
		t.Errorf("Oneshot/RIS vertex ratio = %v, want order n = 34", ratio)
	}
}

func TestSkipOneshotOnWebScale(t *testing.T) {
	if !skipOneshot(data.ComYoutube) || !skipOneshot(data.SocPokec) {
		t.Error("web-scale datasets should skip Oneshot")
	}
	if skipOneshot(data.KarateSet) {
		t.Error("Karate should not skip Oneshot")
	}
}
