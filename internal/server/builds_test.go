package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// newBuildTestServer starts an empty server (sketches arrive via builds) and
// returns it together with its handler under httptest.
func newBuildTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.AllowEmpty = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// awaitBuild polls the job until it reaches a terminal state.
func awaitBuild(t testing.TB, baseURL, id string) buildStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st buildStatus
		if status := getJSON(t, baseURL+"/v1/admin/builds/"+id, &st); status != http.StatusOK {
			t.Fatalf("GET build %s: status %d", id, status)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("build %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncBuildServesSketch is the acceptance path: POST /v1/admin/builds
// drives a Karate build to completion, and the finished sketch immediately
// serves /v1/sketches/{name}/influence — with values identical to the same
// build done in-process, since the build seed pins the RR-set sequence.
func TestAsyncBuildServesSketch(t *testing.T) {
	_, ts := newBuildTestServer(t, Config{})

	status, raw := postJSON(t, ts.URL+"/v1/admin/builds",
		`{"name":"karate","dataset":"Karate","prob":"iwc","seed":7,"max_sets":20000,"workers":2,"default":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body %s", status, raw)
	}
	var st buildStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != BuildQueued && st.State != BuildRunning) {
		t.Fatalf("submit status = %+v", st)
	}

	final := awaitBuild(t, ts.URL, st.ID)
	if final.State != BuildSucceeded {
		t.Fatalf("build finished %s: %s", final.State, final.Error)
	}
	if final.Sets != 20000 || final.Progress != 1 {
		t.Errorf("final status = %+v, want 20000 sets at progress 1", final)
	}

	// The sketch serves the named route...
	status, raw = postJSON(t, ts.URL+"/v1/sketches/karate/influence", `{"seeds":[0,33]}`)
	if status != http.StatusOK {
		t.Fatalf("influence after build: status = %d, body %s", status, raw)
	}
	var got InfluenceResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	// ...and answers exactly like the identically parameterized local build.
	oracle := karateOracle(t) // 20000 sets, seed 7: the same deterministic sequence
	want, err := oracle.Influence(CanonicalSeeds([]int{0, 33}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Influence != want {
		t.Errorf("built sketch influence = %v, want %v (not the deterministic build)", got.Influence, want)
	}

	// default:true pointed the legacy unnamed route at it too.
	if status, _ := postJSON(t, ts.URL+"/v1/influence", `{"seeds":[0]}`); status != http.StatusOK {
		t.Errorf("legacy route after default build: status = %d", status)
	}
}

// TestAsyncAdaptiveBuildWithOut runs an adaptive (target_eps) build that
// persists its sketch to disk; the registry must serve it from the file.
func TestAsyncAdaptiveBuildWithOut(t *testing.T) {
	_, ts := newBuildTestServer(t, Config{})
	out := filepath.Join(t.TempDir(), "karate.sketch")

	status, raw := postJSON(t, ts.URL+"/v1/admin/builds", fmt.Sprintf(
		`{"name":"adaptive","dataset":"Karate","seed":3,"max_sets":2000000,"target_eps":0.2,"k":4,"out":%q}`, out))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body %s", status, raw)
	}
	var st buildStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	final := awaitBuild(t, ts.URL, st.ID)
	if final.State != BuildSucceeded {
		t.Fatalf("build finished %s: %s", final.State, final.Error)
	}
	if final.Sets >= 2000000 {
		t.Errorf("adaptive build burned the whole cap: %d sets", final.Sets)
	}
	if final.Bound <= 0 || final.Bound > 0.2 {
		t.Errorf("final bound = %v, want in (0, 0.2]", final.Bound)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("out sketch not written: %v", err)
	}
	var list listSketchesResponse
	if status := getJSON(t, ts.URL+"/v1/sketches", &list); status != http.StatusOK {
		t.Fatal("list sketches failed")
	}
	found := false
	for _, info := range list.Sketches {
		if info.Name == "adaptive" {
			found = true
			if info.Source != out {
				t.Errorf("sketch source = %q, want %q (file-backed)", info.Source, out)
			}
			if info.RRSets != final.Sets {
				t.Errorf("served sketch has %d sets, build reported %d", info.RRSets, final.Sets)
			}
		}
	}
	if !found {
		t.Error("built sketch missing from /v1/sketches")
	}
}

// TestAsyncSpillBuildServesSketch runs the disk-backed build path end to end:
// a spill build under a deliberately tiny memory budget must produce a sketch
// byte-identical to the in-memory build of the same parameters, serve it from
// the registry, surface spill_bytes while running, and clean up the spill
// file once the sketch is written.
func TestAsyncSpillBuildServesSketch(t *testing.T) {
	_, ts := newBuildTestServer(t, Config{})
	dir := t.TempDir()
	memOut := filepath.Join(dir, "karate-mem.sketch")
	spillOut := filepath.Join(dir, "karate-spill.sketch")

	submit := func(body string) buildStatus {
		t.Helper()
		status, raw := postJSON(t, ts.URL+"/v1/admin/builds", body)
		if status != http.StatusAccepted {
			t.Fatalf("submit: status = %d, body %s", status, raw)
		}
		var st buildStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		final := awaitBuild(t, ts.URL, st.ID)
		if final.State != BuildSucceeded {
			t.Fatalf("build finished %s: %s", final.State, final.Error)
		}
		return final
	}

	submit(fmt.Sprintf(
		`{"name":"mem","dataset":"Karate","seed":11,"max_sets":5000,"workers":2,"out":%q}`, memOut))
	final := submit(fmt.Sprintf(
		`{"name":"spill","dataset":"Karate","seed":11,"max_sets":5000,"workers":2,"out":%q,"spill":true}`, spillOut))

	if final.SpillBytes <= 0 {
		t.Errorf("final status spill_bytes = %d, want > 0", final.SpillBytes)
	}
	// Byte-identity across storage backends is the whole contract.
	memBytes, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	spillBytes, err := os.ReadFile(spillOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, spillBytes) {
		t.Error("spill-built sketch differs from in-memory build")
	}
	// The spill scratch file is gone: it is removed as soon as the member
	// index is built.
	if _, err := os.Stat(spillOut + ".spill"); !os.IsNotExist(err) {
		t.Errorf("spill file still present after build: stat err = %v", err)
	}
	// And the sketch serves queries like any other.
	status, raw := postJSON(t, ts.URL+"/v1/sketches/spill/influence", `{"seeds":[0,33]}`)
	if status != http.StatusOK {
		t.Fatalf("influence after spill build: status = %d, body %s", status, raw)
	}
	var got InfluenceResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Influence <= 0 {
		t.Errorf("influence = %v, want > 0", got.Influence)
	}
}

func TestBuildSubmitValidation(t *testing.T) {
	_, ts := newBuildTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"bad name", `{"name":"a/b","dataset":"Karate","max_sets":100}`, http.StatusBadRequest},
		{"no source", `{"name":"x","max_sets":100}`, http.StatusBadRequest},
		{"two sources", `{"name":"x","dataset":"Karate","graph":"g.txt","max_sets":100}`, http.StatusBadRequest},
		{"missing max_sets", `{"name":"x","dataset":"Karate"}`, http.StatusBadRequest},
		{"oversized max_sets", `{"name":"x","dataset":"Karate","max_sets":999999999999}`, http.StatusBadRequest},
		{"bad prob", `{"name":"x","dataset":"Karate","prob":"nope","max_sets":100}`, http.StatusBadRequest},
		{"bad model", `{"name":"x","dataset":"Karate","model":"SIR","max_sets":100}`, http.StatusBadRequest},
		{"bad delta", `{"name":"x","dataset":"Karate","max_sets":100,"delta":1.5}`, http.StatusBadRequest},
		{"spill without out", `{"name":"x","dataset":"Karate","max_sets":100,"spill":true}`, http.StatusBadRequest},
		{"removed mem_budget_bytes field", `{"name":"x","dataset":"Karate","max_sets":100,"mem_budget_bytes":4096}`, http.StatusBadRequest},
		{"unknown dataset is accepted at submit, fails async", `{"name":"x","dataset":"NoSuch","max_sets":100}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		if status, raw := postJSON(t, ts.URL+"/v1/admin/builds", tc.body); status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, status, tc.wantStatus, raw)
		}
	}

	// The unknown dataset job must fail asynchronously with its error kept.
	var list buildListResponse
	if status := getJSON(t, ts.URL+"/v1/admin/builds", &list); status != http.StatusOK {
		t.Fatal("list builds failed")
	}
	last := list.Builds[len(list.Builds)-1]
	final := awaitBuild(t, ts.URL, last.ID)
	if final.State != BuildFailed || final.Error == "" {
		t.Errorf("unknown-dataset build = %+v, want failed with error", final)
	}
}

func TestBuildDuplicateNameNeedsReplace(t *testing.T) {
	s, ts := newBuildTestServer(t, Config{})
	if err := s.Registry().Register("taken", loadedKarateOracle(t)); err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/admin/builds",
		`{"name":"taken","dataset":"Karate","seed":1,"max_sets":500}`)
	if status != http.StatusConflict {
		t.Fatalf("duplicate build name: status = %d, body %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/v1/admin/builds",
		`{"name":"taken","dataset":"Karate","seed":1,"max_sets":500,"replace":true}`)
	if status != http.StatusAccepted {
		t.Fatalf("replace build: status = %d, body %s", status, raw)
	}
	var st buildStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if final := awaitBuild(t, ts.URL, st.ID); final.State != BuildSucceeded {
		t.Fatalf("replace build finished %s: %s", final.State, final.Error)
	}
	var list listSketchesResponse
	getJSON(t, ts.URL+"/v1/sketches", &list)
	for _, info := range list.Sketches {
		if info.Name == "taken" && info.RRSets != 500 {
			t.Errorf("replaced sketch has %d sets, want 500", info.RRSets)
		}
	}
}

func TestBuildCancelAndUnknown(t *testing.T) {
	// Concurrency 1 and a long-running first job keep the second queued so
	// cancelling a queued job is deterministic.
	_, ts := newBuildTestServer(t, Config{BuildConcurrency: 1})
	status, raw := postJSON(t, ts.URL+"/v1/admin/builds",
		`{"name":"slow","dataset":"ca-GrQc","seed":1,"max_sets":30000000,"target_eps":0.000001,"workers":1}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit slow: status = %d, body %s", status, raw)
	}
	var slow buildStatus
	if err := json.Unmarshal(raw, &slow); err != nil {
		t.Fatal(err)
	}
	status, raw = postJSON(t, ts.URL+"/v1/admin/builds",
		`{"name":"queued","dataset":"Karate","seed":1,"max_sets":100}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit queued: status = %d, body %s", status, raw)
	}
	var queued buildStatus
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}

	del := func(id string) (int, buildStatus) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/builds/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st buildStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	if status, st := del(queued.ID); status != http.StatusOK || st.State != BuildCancelled {
		t.Errorf("cancel queued: status = %d, state %s", status, st.State)
	}
	if status, _ := del(slow.ID); status != http.StatusOK {
		t.Errorf("cancel running: status = %d", status)
	}
	if final := awaitBuild(t, ts.URL, slow.ID); final.State != BuildCancelled {
		t.Errorf("cancelled build ended %s", final.State)
	}
	// Cancelling a terminal job conflicts; unknown jobs 404.
	if status, _ := del(slow.ID); status != http.StatusConflict {
		t.Errorf("re-cancel terminal: status = %d, want 409", status)
	}
	if status, _ := del("build-999"); status != http.StatusNotFound {
		t.Errorf("cancel unknown: status = %d, want 404", status)
	}
	var missing errorResponse
	if status := getJSON(t, ts.URL+"/v1/admin/builds/build-999", &missing); status != http.StatusNotFound {
		t.Errorf("get unknown: status = %d, want 404", status)
	}
}
