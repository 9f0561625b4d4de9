package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// testOracle builds a small Karate oracle with controllable identity, so
// tests can produce sketches that answer differently from one another.
func testOracle(t testing.TB, model diffusion.Model, sets int, seed uint64) *core.Oracle {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleParallelSeeded(ig, model, sets, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func sketchFile(t *testing.T, o *core.Oracle) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d.sketch", o.Model(), o.BuildSeed()))
	if err := sketchio.WriteFile(path, o); err != nil {
		t.Fatal(err)
	}
	return path
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestNamedSketchRoutes serves two different sketches from one process and
// checks every named route answers from the right oracle, with the legacy
// unnamed routes aliasing the default.
func TestNamedSketchRoutes(t *testing.T) {
	ic := testOracle(t, diffusion.IC, 20000, 7)
	lt := testOracle(t, diffusion.LT, 10000, 11)
	s, err := New(Config{
		Sketches:      map[string]*core.Oracle{"ic": ic, "lt": lt},
		DefaultSketch: "ic",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, oracle := range map[string]*core.Oracle{"ic": ic, "lt": lt} {
		want, err := oracle.Influence(CanonicalSeeds([]int{0, 33}))
		if err != nil {
			t.Fatal(err)
		}
		status, raw := postJSON(t, ts.URL+"/v1/sketches/"+name+"/influence", `{"seeds":[0,33]}`)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", name, status, raw)
		}
		var got InfluenceResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Influence != want {
			t.Errorf("%s influence = %v, want %v", name, got.Influence, want)
		}

		wantV, wantI := oracle.TopSingleVertices(3)
		var top TopResponse
		if status := getJSON(t, ts.URL+"/v1/sketches/"+name+"/top?k=3", &top); status != http.StatusOK {
			t.Fatalf("%s top: status = %d", name, status)
		}
		if len(top.Vertices) != len(wantV) || !reflect.DeepEqual(top.Influences, wantI) {
			t.Errorf("%s top = %v/%v, want %v/%v", name, top.Vertices, top.Influences, wantV, wantI)
		}
	}

	// The IC and LT oracles genuinely answer differently, so route mixups
	// cannot hide.
	icInf, _ := ic.Influence(CanonicalSeeds([]int{0, 33}))
	ltInf, _ := lt.Influence(CanonicalSeeds([]int{0, 33}))
	if icInf == ltInf {
		t.Fatalf("test sketches answer identically (%v); pick different builds", icInf)
	}

	// Legacy unnamed route == default sketch ("ic").
	_, rawLegacy := postJSON(t, ts.URL+"/v1/influence", `{"seeds":[0,33]}`)
	var legacy InfluenceResponse
	if err := json.Unmarshal(rawLegacy, &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Influence != icInf {
		t.Errorf("legacy route = %v, want default sketch's %v", legacy.Influence, icInf)
	}

	// Unknown sketch names 404 with a JSON error.
	status, raw := postJSON(t, ts.URL+"/v1/sketches/nope/influence", `{"seeds":[0]}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown sketch: status = %d, body %s", status, raw)
	}
}

func TestListSketchesAndHealthz(t *testing.T) {
	ic := testOracle(t, diffusion.IC, 20000, 7)
	lt := testOracle(t, diffusion.LT, 10000, 11)
	s, err := New(Config{Sketches: map[string]*core.Oracle{"ic": ic, "lt": lt}, DefaultSketch: "lt"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var list listSketchesResponse
	if status := getJSON(t, ts.URL+"/v1/sketches", &list); status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	if list.Default != "lt" || len(list.Sketches) != 2 {
		t.Fatalf("list = %+v", list)
	}
	byName := map[string]sketchInfo{}
	for _, info := range list.Sketches {
		byName[info.Name] = info
	}
	if got := byName["ic"]; got.Vertices != 34 || got.RRSets != 20000 || got.Model != "IC" || got.BuildSeed != 7 || got.Default {
		t.Errorf("ic info = %+v", got)
	}
	if got := byName["lt"]; got.RRSets != 10000 || got.Model != "LT" || got.BuildSeed != 11 || !got.Default {
		t.Errorf("lt info = %+v", got)
	}

	var hz healthzResponse
	if status := getJSON(t, ts.URL+"/healthz", &hz); status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	if hz.Status != "ok" || hz.DefaultSketch != "lt" || hz.Model != "LT" || hz.RRSets != 10000 {
		t.Errorf("healthz = %+v", hz)
	}
	if !reflect.DeepEqual(hz.SketchNames, []string{"ic", "lt"}) {
		t.Errorf("healthz sketch names = %v", hz.SketchNames)
	}
}

func TestAdminLoadUnload(t *testing.T) {
	base := testOracle(t, diffusion.IC, 20000, 7)
	extra := testOracle(t, diffusion.IC, 15000, 99)
	path := sketchFile(t, extra)
	s, err := New(Config{Oracle: base})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, raw := postJSON(t, ts.URL+"/v1/admin/sketches", fmt.Sprintf(`{"name":"extra","path":%q}`, path))
	if status != http.StatusOK {
		t.Fatalf("admin load: status = %d, body %s", status, raw)
	}
	var info sketchInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "extra" || info.BuildSeed != 99 || info.RRSets != 15000 || info.Source != path {
		t.Errorf("loaded info = %+v", info)
	}

	want, err := extra.Influence(CanonicalSeeds([]int{0, 33}))
	if err != nil {
		t.Fatal(err)
	}
	_, raw = postJSON(t, ts.URL+"/v1/sketches/extra/influence", `{"seeds":[0,33]}`)
	var got InfluenceResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Influence != want {
		t.Errorf("loaded sketch influence = %v, want %v", got.Influence, want)
	}

	// Bad loads are 400s: missing file, bad name, missing fields.
	for _, body := range []string{
		fmt.Sprintf(`{"name":"x","path":%q}`, filepath.Join(t.TempDir(), "missing.sketch")),
		fmt.Sprintf(`{"name":"bad/name","path":%q}`, path),
		`{"name":"x"}`,
		fmt.Sprintf(`{"path":%q}`, path),
	} {
		if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches", body); status != http.StatusBadRequest {
			t.Errorf("admin load %s: status = %d, body %s", body, status, raw)
		}
	}

	// Unload and verify queries 404.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/sketches/extra", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin unload: status = %d", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/sketches/extra/influence", `{"seeds":[0]}`); status != http.StatusNotFound {
		t.Errorf("unloaded sketch: status = %d, want 404", status)
	}
	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double unload: status = %d, want 404", resp.StatusCode)
	}
}

// TestAdminLoadStatusCodes pins the admin-load error contract: loading a
// name already held is a 409 unless replace is set, and invalid names are
// 400s before the filesystem is ever touched.
func TestAdminLoadStatusCodes(t *testing.T) {
	base := testOracle(t, diffusion.IC, 20000, 7)
	extra := testOracle(t, diffusion.IC, 15000, 99)
	path := sketchFile(t, extra)
	s, err := New(Config{Oracle: base})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First load under a fresh name succeeds without replace.
	if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches",
		fmt.Sprintf(`{"name":"dup","path":%q}`, path)); status != http.StatusOK {
		t.Fatalf("first load: status = %d, body %s", status, raw)
	}
	// The same name again is a conflict...
	if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches",
		fmt.Sprintf(`{"name":"dup","path":%q}`, path)); status != http.StatusConflict {
		t.Errorf("duplicate load without replace: status = %d, body %s", status, raw)
	}
	// ...including against the default sketch registered at startup...
	if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches",
		fmt.Sprintf(`{"name":%q,"path":%q}`, DefaultSketchName, path)); status != http.StatusConflict {
		t.Errorf("duplicate load of default: status = %d, body %s", status, raw)
	}
	// ...and replace:true opts back into hot-swapping.
	if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches",
		fmt.Sprintf(`{"name":"dup","path":%q,"replace":true}`, path)); status != http.StatusOK {
		t.Errorf("replace load: status = %d, body %s", status, raw)
	}

	// Invalid names are 400s whether or not the path exists.
	for _, name := range []string{"", "a/b", "a b", "..%2f", strings.Repeat("x", 129)} {
		body, _ := json.Marshal(adminLoadRequest{Name: name, Path: path})
		if status, raw := postJSON(t, ts.URL+"/v1/admin/sketches", string(body)); status != http.StatusBadRequest {
			t.Errorf("invalid name %q: status = %d, body %s", name, status, raw)
		}
	}
}

// TestSeedsCacheKeyedBySketchIdentity is the regression test for the seeds
// cache-key collision: the old key was "g:"+k with no sketch identity, so
// with two sketches loaded (or one hot-reloaded) /v1/seeds served one
// sketch's greedy solution for another. The new keys carry the sketch
// identity, and a reload swaps in a fresh cache besides.
func TestSeedsCacheKeyedBySketchIdentity(t *testing.T) {
	a := testOracle(t, diffusion.IC, 20000, 7)
	b := testOracle(t, diffusion.IC, 15000, 99)
	wantA, err := a.Influence(a.GreedySeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.Influence(b.GreedySeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if wantA == wantB {
		t.Fatalf("test oracles agree on greedy influence (%v); pick different builds", wantA)
	}

	s, err := New(Config{Sketches: map[string]*core.Oracle{"a": a, "b": b}, DefaultSketch: "a"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seedsInfluence := func(url string) float64 {
		t.Helper()
		status, raw := postJSON(t, url, `{"k":3}`)
		if status != http.StatusOK {
			t.Fatalf("seeds: status = %d, body %s", status, raw)
		}
		var got SeedsResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		return got.Influence
	}

	// Warm the cache through the legacy route (sketch "a"), then ask sketch
	// "b": under the old "g:3" key this returned a's cached answer.
	if got := seedsInfluence(ts.URL + "/v1/seeds"); got != wantA {
		t.Fatalf("default seeds influence = %v, want %v", got, wantA)
	}
	if got := seedsInfluence(ts.URL + "/v1/sketches/b/seeds"); got != wantB {
		t.Errorf("sketch b seeds influence = %v, want %v (cache collided across sketches)", got, wantB)
	}

	// Hot-reload "a" with b's contents under the same name; the cached
	// answer for the old build must not survive the reload.
	status, raw := postJSON(t, ts.URL+"/v1/admin/sketches",
		fmt.Sprintf(`{"name":"a","path":%q,"replace":true}`, sketchFile(t, b)))
	if status != http.StatusOK {
		t.Fatalf("reload: status = %d, body %s", status, raw)
	}
	if got := seedsInfluence(ts.URL + "/v1/seeds"); got != wantB {
		t.Errorf("post-reload seeds influence = %v, want %v (stale cache served across reload)", got, wantB)
	}
}

// TestSeedsSingleFlight is the cache-stampede regression test: N concurrent
// identical cold-cache /v1/seeds requests must run greedy selection exactly
// once (run with -race in CI).
func TestSeedsSingleFlight(t *testing.T) {
	s, err := New(Config{Oracle: testOracle(t, diffusion.IC, 200000, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	responses := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			status, raw := postJSON(t, ts.URL+"/v1/seeds", `{"k":10}`)
			if status != http.StatusOK {
				t.Errorf("client %d: status = %d", i, status)
			}
			responses[i] = raw
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < clients; i++ {
		if string(responses[i]) != string(responses[0]) {
			t.Fatalf("client %d got a different answer: %s vs %s", i, responses[i], responses[0])
		}
	}
	var list listSketchesResponse
	getJSON(t, ts.URL+"/v1/sketches", &list)
	if len(list.Sketches) != 1 {
		t.Fatalf("list = %+v", list)
	}
	if got := list.Sketches[0].SeedComputations; got != 1 {
		t.Errorf("seed computations = %d, want 1 (stampede: concurrent identical requests each ran greedy)", got)
	}
}

// TestConcurrentMixedSketchesWithReload is the acceptance test for the
// registry: two memory-mapped sketches serve interleaved influence / batch /
// seeds / top traffic from many goroutines while one goroutine hot-reloads
// both sketches over and over through the admin endpoint. Every answer must
// equal the per-oracle ground truth (reloads swap in byte-identical files),
// and under -race plus the sketchio refcounting no query may touch an
// unmapped sketch.
func TestConcurrentMixedSketchesWithReload(t *testing.T) {
	ic := testOracle(t, diffusion.IC, 20000, 7)
	lt := testOracle(t, diffusion.LT, 10000, 11)
	icPath, ltPath := sketchFile(t, ic), sketchFile(t, lt)

	s, err := New(Config{AllowEmpty: true, DefaultSketch: "ic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().LoadFile("ic", icPath); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().LoadFile("lt", ltPath); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type ground struct {
		name     string
		infBody  string
		inf      float64
		batch    string
		batchInf []float64
		seedsInf float64
		topInf   []float64
	}
	truth := make([]ground, 0, 2)
	for name, oracle := range map[string]*core.Oracle{"ic": ic, "lt": lt} {
		g := ground{name: name, infBody: `{"seeds":[0,33]}`, batch: `[{"seeds":[0]},{"seeds":[1,2]},{"seeds":[32,33]}]`}
		var err error
		if g.inf, err = oracle.Influence(CanonicalSeeds([]int{0, 33})); err != nil {
			t.Fatal(err)
		}
		for _, seeds := range [][]int{{0}, {1, 2}, {32, 33}} {
			inf, err := oracle.Influence(CanonicalSeeds(seeds))
			if err != nil {
				t.Fatal(err)
			}
			g.batchInf = append(g.batchInf, inf)
		}
		if g.seedsInf, err = oracle.Influence(oracle.GreedySeeds(3)); err != nil {
			t.Fatal(err)
		}
		_, g.topInf = oracle.TopSingleVertices(4)
		truth = append(truth, g)
	}

	const goroutines = 12
	const iters = 40
	var queries, reloads sync.WaitGroup
	stopReload := make(chan struct{})

	// The reloader: hot-replace both sketches continuously, through the same
	// admin endpoint an operator would use.
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		client := ts.Client()
		for i := 0; ; i++ {
			select {
			case <-stopReload:
				return
			default:
			}
			name, path := "ic", icPath
			if i%2 == 1 {
				name, path = "lt", ltPath
			}
			body := fmt.Sprintf(`{"name":%q,"path":%q,"replace":true}`, name, path)
			resp, err := client.Post(ts.URL+"/v1/admin/sketches", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload %s: status %d", name, resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for g := 0; g < goroutines; g++ {
		queries.Add(1)
		go func(g int) {
			defer queries.Done()
			client := ts.Client()
			for i := 0; i < iters; i++ {
				gt := truth[(g+i)%len(truth)]
				base := ts.URL + "/v1/sketches/" + gt.name
				switch i % 4 {
				case 0:
					status, raw := postJSON(t, base+"/influence", gt.infBody)
					var got InfluenceResponse
					if status != http.StatusOK || json.Unmarshal(raw, &got) != nil || got.Influence != gt.inf {
						t.Errorf("%s influence = %s (status %d), want %v", gt.name, raw, status, gt.inf)
						return
					}
				case 1:
					status, raw := postJSON(t, base+"/influence:batch", gt.batch)
					var items []struct {
						Influence float64 `json:"influence"`
						Error     string  `json:"error"`
					}
					if status != http.StatusOK || json.Unmarshal(raw, &items) != nil || len(items) != len(gt.batchInf) {
						t.Errorf("%s batch = %s (status %d)", gt.name, raw, status)
						return
					}
					for j := range items {
						if items[j].Error != "" || items[j].Influence != gt.batchInf[j] {
							t.Errorf("%s batch item %d = %+v, want %v", gt.name, j, items[j], gt.batchInf[j])
							return
						}
					}
				case 2:
					status, raw := postJSON(t, base+"/seeds", `{"k":3}`)
					var got SeedsResponse
					if status != http.StatusOK || json.Unmarshal(raw, &got) != nil || got.Influence != gt.seedsInf {
						t.Errorf("%s seeds = %s (status %d), want %v", gt.name, raw, status, gt.seedsInf)
						return
					}
				case 3:
					resp, err := client.Get(base + "/top?k=4")
					if err != nil {
						t.Error(err)
						return
					}
					var got TopResponse
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil || !reflect.DeepEqual(got.Influences, gt.topInf) {
						t.Errorf("%s top = %v (err %v), want %v", gt.name, got.Influences, err, gt.topInf)
						return
					}
				}
			}
		}(g)
	}

	// Let queries finish, then stop the reloader.
	done := make(chan struct{})
	go func() { queries.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("mixed-sketch load test timed out")
	}
	close(stopReload)
	reloads.Wait()
}

func TestRegistryRejectsBadNames(t *testing.T) {
	oracle := testOracle(t, diffusion.IC, 1000, 1)
	r := NewRegistry(16)
	for _, name := range []string{"", "a/b", "a b", "a\nb", strings.Repeat("x", 200)} {
		if err := r.Register(name, oracle); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if err := r.Register("ok-name.v1_2", oracle); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
}
