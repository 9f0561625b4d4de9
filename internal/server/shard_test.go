package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"imdist/internal/core"
	"imdist/internal/graph"
)

func TestShardCoverageEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	status, raw := postJSON(t, ts.URL+"/v1/shard/coverage", `{"seed_sets":[[0],[33,0,33],[],[99]]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp ShardCoverageResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	// An unsharded sketch reports itself as the whole 1-shard fleet.
	if resp.ShardIndex != 0 || resp.ShardCount != 1 || resp.TotalSets != oracle.NumSets() {
		t.Errorf("identity = %+v, want shard 0 of 1 over %d sets", resp.ShardIdentity, oracle.NumSets())
	}
	if resp.NumSets != oracle.NumSets() || resp.Vertices != oracle.NumVertices() {
		t.Errorf("identity shape = %+v", resp.ShardIdentity)
	}
	want0, err := oracle.Coverage([]graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	want1, err := oracle.Coverage([]graph.VertexID{0, 33})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Counts[0] != want0 || resp.Counts[1] != want1 || resp.Counts[2] != 0 {
		t.Errorf("counts = %v, want [%d %d 0 _]", resp.Counts, want0, want1)
	}
	if len(resp.Errors) != 4 || resp.Errors[3] == "" || resp.Errors[0] != "" {
		t.Errorf("errors = %q, want item 3 flagged only", resp.Errors)
	}

	// Empty batch and oversized batches are rejected outright.
	if status, _ := postJSON(t, ts.URL+"/v1/shard/coverage", `{"seed_sets":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty seed_sets status = %d", status)
	}
}

func TestShardMarginalEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	// Explicit candidates, in request order.
	status, raw := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[0],"candidates":[33,0,5]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp ShardMarginalResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	wantGains, err := oracle.MarginalCoverage([]graph.VertexID{0}, []graph.VertexID{33, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Gains) != 3 || resp.Gains[0] != wantGains[0] || resp.Gains[1] != 0 || resp.Gains[2] != wantGains[2] {
		t.Errorf("gains = %v, want %v", resp.Gains, wantGains)
	}

	// Empty seeds = membership counts.
	status, raw = postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[],"candidates":[33,0,5]}`)
	if status != http.StatusOK {
		t.Fatalf("empty seeds status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	for i, v := range []graph.VertexID{33, 0, 5} {
		want, err := oracle.Coverage([]graph.VertexID{v})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Gains[i] != want {
			t.Errorf("empty seeds gain[%d] = %d, want membership count %d", v, resp.Gains[i], want)
		}
	}

	for _, bad := range []string{
		`{"seeds":[99],"candidates":[0]}`,              // out-of-range seed
		`{"seeds":[0],"candidates":[99]}`,              // out-of-range candidate
		`{"seeds":[]}`,                                 // candidates are required
		`{"seeds":[],"candidates":[` + karate35 + `]}`, // more candidates than vertices
	} {
		if status, raw := postJSON(t, ts.URL+"/v1/shard/marginal", bad); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad, status, raw)
		}
	}
}

// karate35 is a JSON list of 35 valid Karate vertex ids: one more candidate
// than the graph has vertices.
var karate35 = strings.TrimSuffix(strings.Repeat("0,", 35), ",")

// TestShardMarginalGreedyLimits pins the greedy primitive to the limits that
// govern greedy: seeds up to MaxK and candidates up to the vertex count, not
// the public per-query seed limit. A coordinator over shards run with a
// small MaxSeeds still serves /v1/seeds.
func TestShardMarginalGreedyLimits(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle, Limits: Limits{MaxSeeds: 2, MaxK: 4}})
	if status, raw := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[0,1,2,3],"candidates":[`+strings.TrimSuffix(strings.Repeat("5,", 34), ",")+`]}`); status != http.StatusOK {
		t.Errorf("4 seeds, 34 candidates: status %d (%s), want 200", status, raw)
	}
	status, raw := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[0,1,2,3,4],"candidates":[5]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "too many seeds: 5") {
		t.Errorf("5 seeds over MaxK 4: status %d (%s), want 400 naming the bound", status, raw)
	}
}

// TestShardTopEndpoint pages through a shard's ranking at several page sizes
// and checks the concatenation is core.TopVertices' full ranking.
func TestShardTopEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})
	wantVs, wantCounts := core.TopVertices(oracle.VertexCoverage(), 0)
	for _, limit := range []int{1, 5, 34, 100} {
		var got [][2]int64
		after := ""
		for {
			status, raw := postJSON(t, ts.URL+"/v1/shard/top", fmt.Sprintf(`{"limit":%d%s}`, limit, after))
			if status != http.StatusOK {
				t.Fatalf("limit %d: status %d: %s", limit, status, raw)
			}
			var resp ShardTopResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.ShardCount != 1 || resp.NumSets != oracle.NumSets() {
				t.Fatalf("identity = %+v", resp.ShardIdentity)
			}
			got = append(got, resp.Entries...)
			if len(resp.Entries) < limit {
				break
			}
			last := resp.Entries[len(resp.Entries)-1]
			after = fmt.Sprintf(`,"after":[%d,%d]`, last[0], last[1])
		}
		if len(got) != len(wantVs) {
			t.Fatalf("limit %d: paged %d entries, want %d", limit, len(got), len(wantVs))
		}
		for i, e := range got {
			if e != [2]int64{wantCounts[i], int64(wantVs[i])} {
				t.Fatalf("limit %d: entry %d = %v, want [%d,%d]", limit, i, e, wantCounts[i], wantVs[i])
			}
		}
	}
	for _, bad := range []string{`{"limit":0}`, `{"limit":5,"after":[3,34]}`, `{"limit":5,"after":[-1,0]}`} {
		if status, raw := postJSON(t, ts.URL+"/v1/shard/top", bad); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad, status, raw)
		}
	}
}

func TestShardEndpointsNamedRoutes(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Sketches: map[string]*core.Oracle{"k": oracle}})
	status, raw := postJSON(t, ts.URL+"/v1/sketches/k/shard/coverage", `{"seed_sets":[[0]]}`)
	if status != http.StatusOK {
		t.Fatalf("named route status %d: %s", status, raw)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/sketches/nope/shard/marginal", `{"seeds":[0]}`); status != http.StatusNotFound {
		t.Errorf("unknown sketch status = %d", status)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/sketches/k/shard/top", `{"limit":3}`); status != http.StatusOK {
		t.Errorf("named top route status %d: %s", status, raw)
	}
}

func TestLineageSurfacedInListAndHealthz(t *testing.T) {
	oracle := loadedKarateOracle(t)
	if err := oracle.SetShardLineage(core.ShardLineage{Index: 2, Count: 4, TotalSets: 80000}); err != nil {
		t.Fatal(err)
	}
	plain := loadedKarateOracle(t)
	ts := newTestServer(t, Config{
		Oracle:   oracle,
		Sketches: map[string]*core.Oracle{"plain": plain},
	})

	resp, err := http.Get(ts.URL + "/v1/sketches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list listSketchesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	byName := map[string]sketchInfo{}
	for _, si := range list.Sketches {
		byName[si.Name] = si
	}
	sharded := byName[DefaultSketchName]
	if sharded.ShardIndex == nil || *sharded.ShardIndex != 2 || sharded.ShardCount != 4 || sharded.TotalSets != 80000 {
		t.Errorf("sharded sketch info = %+v, want shard 2 of 4 over 80000", sharded)
	}
	if p := byName["plain"]; p.ShardIndex != nil || p.ShardCount != 0 || p.TotalSets != 0 {
		t.Errorf("plain sketch leaked lineage: %+v", p)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.ShardIndex == nil || *hz.ShardIndex != 2 || hz.ShardCount != 4 || hz.TotalSets != 80000 {
		t.Errorf("healthz lineage = index %v count %d total %d", hz.ShardIndex, hz.ShardCount, hz.TotalSets)
	}
}
