package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
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

// TestConcurrentMixedSketchesReloadMidFlight is the acceptance test for the
// registry. Two memory-mapped sketches serve interleaved traffic on every
// route that reads a sketch — influence, batch, seeds, top, both shard
// primitives and the sketch list — from many goroutines, first while one
// goroutine hot-reloads both sketches over and over through the admin
// endpoint, then while one of them is unloaded. Every answer must equal the
// per-oracle ground truth (reloads swap in byte-identical files) or, once its
// sketch is unloaded, be a 404. Queries read the member index straight out
// of the mapping, so a route that skipped its query reference would read
// unmapped memory and crash the test binary.
func TestConcurrentMixedSketchesReloadMidFlight(t *testing.T) {
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

	// Each route's request, and the exact body the oracle's answer encodes
	// to (the list of sketches is only checked to decode: its cache counters
	// move with the traffic).
	type call struct{ method, path, body, want string }
	encode := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	calls := map[string][]call{}
	for name, oracle := range map[string]*core.Oracle{"ic": ic, "lt": lt} {
		influence := func(seeds ...int) float64 {
			inf, err := oracle.Influence(CanonicalSeeds(seeds))
			if err != nil {
				t.Fatal(err)
			}
			return inf
		}
		ci := oracle.ConfidenceHalfWidth(2.576)
		var batch []BatchItem
		for _, seeds := range [][]int{{0}, {1, 2}, {32, 33}} {
			batch = append(batch, BatchItem{InfluenceResponse: &InfluenceResponse{Influence: influence(seeds...), CI99: ci, Seeds: len(seeds)}})
		}
		greedy := oracle.GreedySeeds(3)
		seeds := make([]int, len(greedy))
		for i, v := range greedy {
			seeds[i] = int(v)
		}
		topV, topInf := oracle.TopSingleVertices(4)
		top := TopResponse{Influences: topInf}
		for _, v := range topV {
			top.Vertices = append(top.Vertices, int(v))
		}
		var counts []int64
		for _, seeds := range [][]graph.VertexID{{0}, {1, 2}} {
			c, err := oracle.Coverage(seeds)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, c)
		}
		gains, err := oracle.MarginalCoverage([]graph.VertexID{0}, []graph.VertexID{33, 5})
		if err != nil {
			t.Fatal(err)
		}
		base := "/v1/sketches/" + name
		calls[name] = []call{
			{"POST", base + "/influence", `{"seeds":[0,33]}`, encode(InfluenceResponse{Influence: influence(0, 33), CI99: ci, Seeds: 2})},
			{"POST", base + "/influence:batch", `[{"seeds":[0]},{"seeds":[1,2]},{"seeds":[32,33]}]`, encode(batch)},
			{"POST", base + "/seeds", `{"k":3}`, encode(SeedsResponse{Seeds: seeds, Influence: influence(seeds...)})},
			{"GET", base + "/top?k=4", "", encode(top)},
			{"POST", base + "/shard/coverage", `{"seed_sets":[[0],[1,2]]}`, encode(ShardCoverageResponse{ShardIdentity: shardIdentity(oracle), Counts: counts})},
			{"POST", base + "/shard/marginal", `{"seeds":[0],"candidates":[33,5]}`, encode(ShardMarginalResponse{ShardIdentity: shardIdentity(oracle), Gains: gains})},
			{"GET", "/v1/sketches", "", ""},
		}
	}
	// run sends c and reports a wrong answer; a 404 counts as correct only
	// when allowGone. It returns the status, or 0 after a failure.
	run := func(client *http.Client, c call, allowGone bool) int {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			t.Errorf("%s %s: %v", c.method, c.path, err)
		case resp.StatusCode == http.StatusNotFound && allowGone:
			return resp.StatusCode
		case resp.StatusCode != http.StatusOK:
			t.Errorf("%s %s: status %d: %s", c.method, c.path, resp.StatusCode, raw)
		case c.want == "":
			var list struct {
				Sketches []sketchInfo `json:"sketches"`
			}
			if err := json.Unmarshal(raw, &list); err != nil {
				t.Errorf("GET %s: %s: %v", c.path, raw, err)
				return 0
			}
			return resp.StatusCode
		case strings.TrimSpace(string(raw)) != c.want:
			t.Errorf("%s %s = %s, want %s", c.method, c.path, raw, c.want)
		default:
			return resp.StatusCode
		}
		return 0
	}

	const goroutines = 12
	const iters = 42
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

	names := []string{"ic", "lt"}
	for g := 0; g < goroutines; g++ {
		queries.Add(1)
		go func(g int) {
			defer queries.Done()
			client := ts.Client()
			for i := 0; i < iters; i++ {
				cs := calls[names[(g+i)%len(names)]]
				if run(client, cs[i%len(cs)], false) == 0 {
					return
				}
			}
		}(g)
	}
	waitOrFail := func(wg *sync.WaitGroup, what string) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s timed out", what)
		}
	}
	waitOrFail(&queries, "mixed-sketch traffic under reloads")
	close(stopReload)
	reloads.Wait()

	// Unload ic while every route queries it: each goroutine cycles the
	// routes until a route of ic answers 404, and the unload is sent once
	// the first answers are in.
	var answered atomic.Int32
	warm := make(chan struct{})
	var warmOnce sync.Once
	for g := 0; g < goroutines; g++ {
		queries.Add(1)
		go func(g int) {
			defer queries.Done()
			client := ts.Client()
			cs := calls["ic"]
			for i := g; i < g+10000; i++ {
				c := cs[i%len(cs)]
				status := run(client, c, true)
				if status == 0 {
					return
				}
				if answered.Add(1) == goroutines {
					warmOnce.Do(func() { close(warm) })
				}
				if status == http.StatusNotFound {
					return
				}
			}
			t.Error("ic still answered 10000 requests after its unload was sent")
		}(g)
	}
	select {
	case <-warm:
	case <-time.After(2 * time.Minute):
		t.Fatal("no answers before the unload")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/sketches/ic", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload ic: status %d", resp.StatusCode)
	}
	waitOrFail(&queries, "traffic during the unload")

	// lt is untouched by the unload and still answers on every route.
	for _, c := range calls["lt"] {
		if run(ts.Client(), c, false) == 0 {
			break
		}
	}
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
