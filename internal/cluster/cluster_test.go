package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// buildSketchFile builds a Karate sketch and writes it as a v1 sketch file.
// numSets is chosen per test: SplitSketch partitions on 64Ki-set block
// boundaries, so a sketch meant to split S ways needs at least S blocks.
func buildSketchFile(t testing.TB, model diffusion.Model, numSets int, seed uint64) string {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleParallelSeeded(ig, model, numSets, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d.imsk", model, seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sketchio.Encode(f, o); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveSketchFile launches one shard server on the sketch file at path.
func serveSketchFile(t testing.TB, path string) *httptest.Server {
	t.Helper()
	return serveSketchLimits(t, path, server.Limits{})
}

// serveSketchLimits is serveSketchFile under the given request limits.
func serveSketchLimits(t testing.TB, path string, limits server.Limits) *httptest.Server {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sketchio.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Oracle: o, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// launchFleet splits the sketch at path into `shards` shard files (1 shard
// serves the unsplit file directly — the degenerate fleet) and launches one
// shard server per file, returning the coordinator target list.
func launchFleet(t testing.TB, path string, shards int) []string {
	t.Helper()
	return launchFleetLimits(t, path, shards, server.Limits{})
}

// launchFleetLimits is launchFleet with every shard server under limits.
func launchFleetLimits(t testing.TB, path string, shards int, limits server.Limits) []string {
	t.Helper()
	paths := []string{path}
	if shards > 1 {
		var err error
		paths, err = sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), shards)
		if err != nil {
			t.Fatal(err)
		}
	}
	targets := make([]string, len(paths))
	for i, p := range paths {
		targets[i] = serveSketchLimits(t, p, limits).URL
	}
	return targets
}

func newCoordinator(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
	return newCoordinatorPaged(t, cfg, pageSize, greedyBatch)
}

// newCoordinatorPaged is newCoordinator with the first ranking page and the
// starting greedy batch set to page and batch.
func newCoordinatorPaged(t testing.TB, cfg Config, page, batch int) *httptest.Server {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.pageSize, c.greedyBatch = page, batch
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// pageSizes are the first-page sizes the equivalence suites run at: Karate
// has 34 vertices, so the default page returns every vertex at once and only
// the small pages page.
var pageSizes = []int{1, 3, pageSize}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func postJSON(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// equivalenceQueries is the byte-identity matrix: every public query the
// coordinator serves, including invalid ones, whose status and raw response
// bytes must match a single process on the unsplit sketch exactly.
var equivalenceQueries = []struct {
	name, method, path, body string
}{
	{"influence", "POST", "/v1/influence", `{"seeds":[0]}`},
	{"influence-multi", "POST", "/v1/influence", `{"seeds":[33,0,5,9]}`},
	{"influence-dup", "POST", "/v1/influence", `{"seeds":[7,7,7]}`},
	{"influence-empty", "POST", "/v1/influence", `{"seeds":[]}`},
	{"influence-range", "POST", "/v1/influence", `{"seeds":[99]}`},
	{"influence-negative", "POST", "/v1/influence", `{"seeds":[-1]}`},
	{"batch", "POST", "/v1/influence:batch",
		`[{"seeds":[0]},{"seeds":[33]},{"seeds":[0,33]},{"seeds":[0]},{"seeds":[99]},{"seeds":[]}]`},
	{"seeds", "POST", "/v1/seeds", `{"k":5}`},
	{"seeds-clamped", "POST", "/v1/seeds", `{"k":34}`},
	{"seeds-bad-k", "POST", "/v1/seeds", `{"k":0}`},
	{"top", "GET", "/v1/top?k=10", ""},
	{"top-default", "GET", "/v1/top", ""},
	{"top-all", "GET", "/v1/top?k=34", ""},
	{"top-beyond-n", "GET", "/v1/top?k=50", ""},
	{"top-bad-k", "GET", "/v1/top?k=oops", ""},
	// An id beyond int32 must not be merged with the id it wraps to (5).
	{"batch-int32-wrap", "POST", "/v1/influence:batch", `[{"seeds":[5]},{"seeds":[4294967301]}]`},
	// Permutations of one invalid set: each item names its own first bad seed.
	{"batch-invalid-permuted", "POST", "/v1/influence:batch", `[{"seeds":[99,-1]},{"seeds":[-1,99]}]`},
	{"influence-unknown-field", "POST", "/v1/influence", `{"seeds":[0],"weights":[1]}`},
	{"influence-malformed", "POST", "/v1/influence", `{"seeds":[0`},
	{"batch-empty", "POST", "/v1/influence:batch", `[]`},
	{"seeds-k-above-max", "POST", "/v1/seeds", `{"k":10001}`},
	{"top-named", "GET", "/v1/sketches/default/top?k=5", ""},
}

func runQuery(t testing.TB, base string, q struct{ name, method, path, body string }) (int, []byte) {
	t.Helper()
	if q.method == "GET" {
		return get(t, base+q.path)
	}
	return postJSON(t, base+q.path, q.body)
}

// TestCoordinatorEquivalence is the acceptance gate of the distributed tier:
// a coordinator over 1-, 2- and 4-shard fleets answers every public query
// byte-identically to one process serving the unsplit sketch, for both
// diffusion models and at every first-page size. The max-seeds case runs
// both sides with a public seed limit of 8, which must not limit greedy.
func TestCoordinatorEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		model   diffusion.Model
		numSets int
		shards  []int
		limits  server.Limits
	}{
		// 4 blocks: splits 1, 2 and 4 ways (2-shard split is uneven-free; the
		// 4-way split exercises one block per shard).
		{"IC", diffusion.IC, 4 * core.DefaultBatchShardSize, []int{1, 2, 4}, server.Limits{}},
		// 2 blocks under LT: a second model through the same merge path.
		{"LT", diffusion.LT, 2 * core.DefaultBatchShardSize, []int{2}, server.Limits{}},
		{"max-seeds", diffusion.IC, 2 * core.DefaultBatchShardSize, []int{2}, server.Limits{MaxSeeds: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := buildSketchFile(t, tc.model, tc.numSets, 7)
			single := serveSketchLimits(t, path, tc.limits)
			for _, shards := range tc.shards {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					targets := launchFleetLimits(t, path, shards, tc.limits)
					for _, page := range pageSizes {
						t.Run(fmt.Sprintf("page=%d", page), func(t *testing.T) {
							coord := newCoordinatorPaged(t, Config{Targets: targets, Limits: tc.limits}, page, greedyBatch)
							for _, q := range equivalenceQueries {
								wantStatus, wantBody := runQuery(t, single.URL, q)
								gotStatus, gotBody := runQuery(t, coord.URL, q)
								if gotStatus != wantStatus {
									t.Errorf("%s: status %d, single process %d (%s)", q.name, gotStatus, wantStatus, gotBody)
									continue
								}
								if string(gotBody) != string(wantBody) {
									t.Errorf("%s: coordinator answer diverges\n got: %s\nwant: %s", q.name, gotBody, wantBody)
								}
							}
						})
					}
				})
			}
		})
	}
}

// TestCoordinatorGreedyBatchSizes pins distributed greedy to the single
// process at several starting batch sizes and first-page sizes: the CELF
// loop selects the same sequence however many stale entries each scatter
// re-evaluates and however deep each ranking page reads. Requests run
// concurrently, so the shards' idle covered states and the coordinator's
// per-call loop state are exercised by overlapping selections.
func TestCoordinatorGreedyBatchSizes(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 11)
	single := serveSketchFile(t, path)
	targets := launchFleet(t, path, 2)
	bodies := []string{`{"k":1}`, `{"k":5}`, `{"k":20}`, `{"k":34}`, `{"k":50}`}
	want := make([]string, len(bodies))
	for i, body := range bodies {
		status, raw := postJSON(t, single.URL+"/v1/seeds", body)
		if status != http.StatusOK {
			t.Fatalf("single %s: status %d (%s)", body, status, raw)
		}
		want[i] = string(raw)
	}
	for _, page := range pageSizes {
		for _, batch := range []int{1, 3, greedyBatch} {
			coord := newCoordinatorPaged(t, Config{Targets: targets}, page, batch)
			var wg sync.WaitGroup
			for i, body := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(coord.URL+"/v1/seeds", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					raw, err := io.ReadAll(resp.Body)
					if err != nil || resp.StatusCode != http.StatusOK || string(raw) != want[i] {
						t.Errorf("page %d, batch %d, %s: status %d err %v\n got: %s\nwant: %s", page, batch, body, resp.StatusCode, err, raw, want[i])
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestCoordinatorGreedyConcurrentConversations runs two greedy conversations
// against one 2-shard fleet at once, ten queries each at k=20 and k=50 (which
// Karate clamps to its 34 vertices). Each shard keeps covered states between
// marginal rounds and matches them by seed set, so interleaved rounds of two
// queries must each find their own state, or rebuild one, and never answer
// from the other's: every body must equal the single process's.
func TestCoordinatorGreedyConcurrentConversations(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 13)
	single := serveSketchFile(t, path)
	coord := newCoordinator(t, Config{Targets: launchFleet(t, path, 2)})
	var wg sync.WaitGroup
	for _, body := range []string{`{"k":20}`, `{"k":50}`} {
		status, want := postJSON(t, single.URL+"/v1/seeds", body)
		if status != http.StatusOK {
			t.Fatalf("single %s: status %d (%s)", body, status, want)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				resp, err := http.Post(coord.URL+"/v1/seeds", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || string(raw) != string(want) {
					t.Errorf("%s, query %d: status %d err %v\n got: %s\nwant: %s", body, i, resp.StatusCode, err, raw, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCoordinatorReloadMidFlight hot-reloads the shard servers through their
// own admin API while the coordinator keeps serving: a half-reloaded fleet
// (mixed build seeds) is rejected as misassembled, and once every shard has
// swapped, answers are byte-identical to a single process on the new sketch —
// with no coordinator restart and no coordinator-side cache to invalidate.
func TestCoordinatorReloadMidFlight(t *testing.T) {
	const shards = 2
	pathA := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	pathB := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 8)
	shardsB, err := sketchio.SplitSketch(pathB, filepath.Join(t.TempDir(), "b"), shards)
	if err != nil {
		t.Fatal(err)
	}
	targets := launchFleet(t, pathA, shards)
	coord := newCoordinator(t, Config{Targets: targets})

	const query = `{"seeds":[0,33]}`
	singleA := serveSketchFile(t, pathA)
	wantStatus, wantA := postJSON(t, singleA.URL+"/v1/influence", query)
	if gotStatus, got := postJSON(t, coord.URL+"/v1/influence", query); gotStatus != wantStatus || string(got) != string(wantA) {
		t.Fatalf("pre-reload answer diverges: %d %s, want %d %s", gotStatus, got, wantStatus, wantA)
	}

	reload := func(target, shardPath string) {
		t.Helper()
		body := fmt.Sprintf(`{"name":%q,"path":%q,"replace":true}`, server.DefaultSketchName, shardPath)
		if status, raw := postJSON(t, target+"/v1/admin/sketches", body); status != http.StatusOK {
			t.Fatalf("admin reload of %s: status %d: %s", target, status, raw)
		}
	}

	// Half-reloaded: shard 0 now serves build B, shard 1 still build A. The
	// per-query identity check must refuse to merge across builds.
	reload(targets[0], shardsB[0])
	if status, raw := postJSON(t, coord.URL+"/v1/influence", query); status != http.StatusBadGateway {
		t.Fatalf("mixed-build fleet: status %d (%s), want %d", status, raw, http.StatusBadGateway)
	} else if !strings.Contains(string(raw), "does not match") {
		t.Errorf("mixed-build fleet error does not name the mismatch: %s", raw)
	}

	// Fully reloaded: the coordinator serves build B immediately.
	reload(targets[1], shardsB[1])
	singleB := serveSketchFile(t, pathB)
	wantStatus, wantB := postJSON(t, singleB.URL+"/v1/influence", query)
	if string(wantA) == string(wantB) {
		t.Fatal("builds A and B answer identically; reload test proves nothing")
	}
	if gotStatus, got := postJSON(t, coord.URL+"/v1/influence", query); gotStatus != wantStatus || string(got) != string(wantB) {
		t.Fatalf("post-reload answer = %d %s, want %d %s", gotStatus, got, wantStatus, wantB)
	}
	for _, q := range equivalenceQueries {
		wantStatus, want := runQuery(t, singleB.URL, q)
		gotStatus, got := runQuery(t, coord.URL, q)
		if gotStatus != wantStatus || string(got) != string(want) {
			t.Errorf("%s after reload: got %d %s, want %d %s", q.name, gotStatus, got, wantStatus, want)
		}
	}
}

// TestCoordinatorDegraded kills one shard of a fleet and checks that every
// query degrades to a 503 naming the missing target, and healthz reports the
// fleet as degraded, until the shard returns.
func TestCoordinatorDegraded(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := serveSketchFile(t, paths[0])
	dead := serveSketchFile(t, paths[1])
	coord := newCoordinator(t, Config{Targets: []string{alive.URL, dead.URL}})
	dead.Close()

	for _, q := range []struct{ name, method, path, body string }{
		{"influence", "POST", "/v1/influence", `{"seeds":[0]}`},
		{"batch", "POST", "/v1/influence:batch", `[{"seeds":[0]}]`},
		{"seeds", "POST", "/v1/seeds", `{"k":2}`},
		{"top", "GET", "/v1/top?k=3", ""},
	} {
		status, raw := runQuery(t, coord.URL, q)
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s on degraded fleet: status %d (%s), want 503", q.name, status, raw)
			continue
		}
		if !strings.Contains(string(raw), dead.URL) {
			t.Errorf("%s degraded error does not name the missing target %s: %s", q.name, dead.URL, raw)
		}
	}

	status, raw := get(t, coord.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var hz healthzResponse
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Mode != "coordinator" || hz.Shards != 2 {
		t.Errorf("healthz = %+v, want degraded coordinator over 2 shards", hz)
	}
	sawUnreachable := false
	for _, ht := range hz.Targets {
		if ht.Target == dead.URL && ht.Status == "unreachable" {
			sawUnreachable = true
		}
		if ht.Target == alive.URL && (ht.Status != "ok" || ht.ShardIndex == nil || *ht.ShardIndex != 0) {
			t.Errorf("healthy shard entry = %+v", ht)
		}
	}
	if !sawUnreachable {
		t.Errorf("healthz does not flag the dead target: %s", raw)
	}
}

// TestCoordinatorMisassembledFleet points a coordinator at wrongly assembled
// fleets — the same shard twice, and an unsplit sketch inside a 2-target
// fleet — and checks both are rejected as 502s naming the offender.
func TestCoordinatorMisassembledFleet(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}

	dup0a := serveSketchFile(t, paths[0])
	dup0b := serveSketchFile(t, paths[0])
	coord := newCoordinator(t, Config{Targets: []string{dup0a.URL, dup0b.URL}})
	status, raw := postJSON(t, coord.URL+"/v1/influence", `{"seeds":[0]}`)
	if status != http.StatusBadGateway || !strings.Contains(string(raw), "already served by") {
		t.Errorf("duplicated shard: status %d: %s, want 502 naming the duplicate", status, raw)
	}

	shard0 := serveSketchFile(t, paths[0])
	unsplit := serveSketchFile(t, path)
	coord2 := newCoordinator(t, Config{Targets: []string{shard0.URL, unsplit.URL}})
	status, raw = postJSON(t, coord2.URL+"/v1/influence", `{"seeds":[0]}`)
	if status != http.StatusBadGateway || !strings.Contains(string(raw), "coordinator has 2 targets") {
		t.Errorf("unsplit sketch in fleet: status %d: %s, want 502 naming the fleet-size mismatch", status, raw)
	}
}

// TestCoordinatorShardRejectsValidSet points a coordinator at a fleet whose
// second shard allows fewer seeds per set than the coordinator: that shard's
// count for an accepted set would be missing from the sum, so the query
// fails as a 502 naming the shard rather than answering from part of the
// fleet.
func TestCoordinatorShardRejectsValidSet(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	o, err := sketchio.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Oracle: o, Limits: server.Limits{MaxSeeds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	narrow := httptest.NewServer(s.Handler())
	t.Cleanup(func() { narrow.Close(); s.Close() })
	coord := newCoordinator(t, Config{Targets: []string{serveSketchFile(t, paths[0]).URL, narrow.URL}})

	status, raw := postJSON(t, coord.URL+"/v1/influence:batch", `[{"seeds":[0]},{"seeds":[0,1,2]}]`)
	if status != http.StatusBadGateway || !strings.Contains(string(raw), narrow.URL) || !strings.Contains(string(raw), "too many seeds") {
		t.Errorf("narrow shard: status %d: %s, want 502 naming %s and its rejection", status, raw, narrow.URL)
	}
}

// garbledShard serves the shard sketch at path through a real shard
// server, except that every /v1/shard/top request is answered by garble,
// which may ask the real shard for any page and edit what it returns.
func garbledShard(t *testing.T, path string, garble func(req server.ShardTopRequest, page func(server.ShardTopRequest) server.ShardTopResponse) server.ShardTopResponse) *httptest.Server {
	t.Helper()
	real := serveSketchFile(t, path)
	target, err := url.Parse(real.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	page := func(req server.ShardTopRequest) server.ShardTopResponse {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
		}
		status, body := postJSON(t, real.URL+"/v1/shard/top", string(raw))
		var resp server.ShardTopResponse
		if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil {
			t.Errorf("real shard page: status %d (%v): %s", status, err, body)
		}
		return resp
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/top" {
			proxy.ServeHTTP(w, r)
			return
		}
		var req server.ShardTopRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(garble(req, page))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatorRejectsGarbledPages puts a shard whose ranking pages break
// the page contract behind a real coordinator: each garbled page fails
// /v1/top and /v1/seeds as a 502 naming that shard, never a wrong answer.
// Pages of 3 make every query read several pages.
func TestCoordinatorRejectsGarbledPages(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := serveSketchFile(t, paths[0])
	type pageFunc = func(server.ShardTopRequest) server.ShardTopResponse
	edit := func(mutate func(req server.ShardTopRequest, resp *server.ShardTopResponse)) func(server.ShardTopRequest, pageFunc) server.ShardTopResponse {
		return func(req server.ShardTopRequest, page pageFunc) server.ShardTopResponse {
			resp := page(req)
			mutate(req, &resp)
			return resp
		}
	}
	cases := []struct {
		name   string
		garble func(server.ShardTopRequest, pageFunc) server.ShardTopResponse
		want   string
	}{
		{"vertex out of range", edit(func(_ server.ShardTopRequest, resp *server.ShardTopResponse) {
			resp.Entries[0][1] = int64(resp.Vertices)
		}), "is not a [count, vertex] pair"},
		{"count above num_sets", edit(func(_ server.ShardTopRequest, resp *server.ShardTopResponse) {
			resp.Entries[0][0] = int64(resp.NumSets) + 1
		}), "is not a [count, vertex] pair"},
		{"repeated vertex", edit(func(_ server.ShardTopRequest, resp *server.ShardTopResponse) {
			resp.Entries[1] = [2]int64{resp.Entries[0][0] - 1, resp.Entries[0][1]}
		}), "repeats vertex"},
		{"out of order", edit(func(_ server.ShardTopRequest, resp *server.ShardTopResponse) {
			resp.Entries[0], resp.Entries[1] = resp.Entries[1], resp.Entries[0]
		}), "does not follow"},
		{"not after cursor", edit(func(req server.ShardTopRequest, resp *server.ShardTopResponse) {
			if req.After != nil {
				resp.Entries = append([][2]int64{*req.After}, resp.Entries[:len(resp.Entries)-1]...)
			}
		}), "does not follow"},
		{"more than requested", func(req server.ShardTopRequest, page pageFunc) server.ShardTopResponse {
			req.Limit++
			return page(req)
		}, "requested"},
		{"ends early", edit(func(_ server.ShardTopRequest, resp *server.ShardTopResponse) {
			resp.Entries = resp.Entries[:len(resp.Entries)-1]
		}), "unranked"},
		{"identity changed mid-query", edit(func(req server.ShardTopRequest, resp *server.ShardTopResponse) {
			if req.After != nil {
				resp.BuildSeed++
			}
		}), "identity changed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := garbledShard(t, paths[1], tc.garble)
			coord := newCoordinatorPaged(t, Config{Targets: []string{good.URL, bad.URL}}, 3, greedyBatch)
			for _, q := range []struct{ name, method, path, body string }{
				{"top", "GET", "/v1/top?k=34", ""},
				{"seeds", "POST", "/v1/seeds", `{"k":34}`},
			} {
				status, raw := runQuery(t, coord.URL, q)
				if status != http.StatusBadGateway || !strings.Contains(string(raw), bad.URL) || !strings.Contains(string(raw), tc.want) {
					t.Errorf("%s: status %d: %s, want 502 naming %s and %q", q.name, status, raw, bad.URL, tc.want)
				}
			}
		})
	}
}

// TestCoordinatorNamedRoutes exercises the /v1/sketches/{name}/... variants:
// the coordinator forwards the path's sketch name to the shard fleet, and an
// unknown name passes the shards' 404 through byte-identically.
func TestCoordinatorNamedRoutes(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	single := serveSketchFile(t, path)
	targets := make([]string, len(paths))
	for i, p := range paths {
		targets[i] = serveSketchFile(t, p).URL
	}
	coord := newCoordinator(t, Config{Targets: targets})

	// The default sketch is also reachable by its registered name.
	for _, route := range []string{"/v1/influence", "/v1/sketches/" + server.DefaultSketchName + "/influence"} {
		wantStatus, want := postJSON(t, single.URL+route, `{"seeds":[0]}`)
		gotStatus, got := postJSON(t, coord.URL+route, `{"seeds":[0]}`)
		if gotStatus != wantStatus || string(got) != string(want) {
			t.Errorf("%s: got %d %s, want %d %s", route, gotStatus, got, wantStatus, want)
		}
	}

	wantStatus, want := postJSON(t, single.URL+"/v1/sketches/nope/influence", `{"seeds":[0]}`)
	gotStatus, got := postJSON(t, coord.URL+"/v1/sketches/nope/influence", `{"seeds":[0]}`)
	if gotStatus != http.StatusNotFound || gotStatus != wantStatus || string(got) != string(want) {
		t.Errorf("unknown sketch: got %d %s, want %d %s", gotStatus, got, wantStatus, want)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no targets should fail")
	}
	if _, err := New(Config{Targets: []string{"127.0.0.1:8080"}}); err == nil {
		t.Error("New with a schemeless target should fail")
	}
	c, err := New(Config{Targets: []string{"http://127.0.0.1:8080/"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cfg.Targets[0]; got != "http://127.0.0.1:8080" {
		t.Errorf("target not normalized: %q", got)
	}
	if c.greedyBatch != greedyBatch || c.pageSize != pageSize || c.Limits().MaxK != server.DefaultMaxK {
		t.Errorf("defaults not applied: greedy batch %d, page %d, %+v", c.greedyBatch, c.pageSize, c.Limits())
	}
}
