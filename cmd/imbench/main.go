// Command imbench is a closed-loop load driver for the influence server: it
// generates a reproducible seed-set workload (internal/workload mixes),
// replays it against a running imserve instance — or against an in-process
// server loaded from sketch files — and reports throughput and latency
// quantiles as a JSON document suitable for trend tracking in CI.
//
// The driver is closed-loop: each of -concurrency clients issues its next
// request only after the previous one completes, so reported latencies are
// uncontaminated by client-side queueing.
//
// Usage:
//
//	imbench -addr http://localhost:8080 -mix hotspot -queries 1024 -batch 64
//	imbench -sketch karate.sketch -mode both -out report.json
//	imbench -sketch ic=karate-ic.sketch,lt=karate-lt.sketch \
//	        -sketches ic:2,lt:1 -mode both -out report.json
//
// With -sketches the query stream is spread across the named sketches of a
// multi-sketch server in weighted round-robin order ("ic:2,lt:1" sends two
// queries to ic for every one to lt), exercising the per-sketch registry
// routes /v1/sketches/{name}/influence[...:batch]; without it the stream
// targets the unnamed legacy routes (the server's default sketch). The
// -sketch flag accepts a comma-separated list of name=path entries (a bare
// path derives the name from the file name) and serves them all from one
// in-process server, so CI can measure heterogeneous multi-sketch traffic
// without orchestrating a second process.
//
// With -mode both, the same query stream is replayed twice — once as
// sequential POST .../influence requests and once as POST .../influence:batch
// requests of -batch queries each — and the report includes the batch speedup
// (single-mode duration / batch-mode duration). The in-process server
// (-sketch) runs with its LRU caches disabled so the report measures the
// query engines rather than cache lookups. Against an external server
// (-addr) the cache is whatever the server was started with; the single pass
// runs first, so a warm cache there inflates the batch numbers — disable the
// server's cache (imserve -cache -1) for an engine-to-engine comparison.
//
// With -targets the same workload is replayed against several servers in
// turn — typically a single-process baseline and imserve -coordinator fronts
// over growing shard fleets — and the report records each target's
// throughput plus its scaling relative to the first target:
//
//	imbench -targets http://localhost:9080,http://localhost:9090 \
//	        -mix hotspot -queries 4096 -out BENCH_cluster.json
//
// Before any timing, every target must answer a probe slice of the workload
// byte-identically to the first target; a diverging fleet fails the run.
// All modes drive the server through one shared HTTP transport whose
// connection pool is sized to -concurrency, so workers reuse keep-alive
// connections instead of churning through ephemeral ports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/stats"
	"imdist/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imbench:", err)
		os.Exit(1)
	}
}

// latencyReport summarizes per-request latencies in milliseconds.
type latencyReport struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// modeReport is the outcome of replaying the workload in one request mode.
type modeReport struct {
	Requests          int           `json:"requests"`
	Queries           int           `json:"queries"`
	Errors            int           `json:"errors"`
	DurationSeconds   float64       `json:"duration_seconds"`
	RequestsPerSecond float64       `json:"requests_per_second"`
	QueriesPerSecond  float64       `json:"queries_per_second"`
	Latency           latencyReport `json:"latency"`
}

// sketchMixReport describes one sketch of a multi-sketch run: its share of
// the query stream and the sketch's shape.
type sketchMixReport struct {
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Vertices int    `json:"vertices"`
	RRSets   int    `json:"rr_sets"`
	Queries  int    `json:"queries"`
}

// report is the JSON document imbench emits.
type report struct {
	Target       string            `json:"target"`
	Mix          string            `json:"mix"`
	Queries      int               `json:"queries"`
	MaxSeeds     int               `json:"max_seeds"`
	BatchSize    int               `json:"batch_size"`
	Concurrency  int               `json:"concurrency"`
	Seed         uint64            `json:"seed"`
	Vertices     int               `json:"vertices"`
	RRSets       int               `json:"rr_sets"`
	Sketches     []sketchMixReport `json:"sketches,omitempty"`
	Single       *modeReport       `json:"single,omitempty"`
	Batch        *modeReport       `json:"batch,omitempty"`
	BatchSpeedup float64           `json:"batch_speedup,omitempty"`
}

// benchRequest is one pre-encoded HTTP request of the replay: its target
// URL, body, and the number of workload queries it carries.
type benchRequest struct {
	url     string
	body    []byte
	queries int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("imbench", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "", "base URL of a running imserve (e.g. http://localhost:8080)")
		multi       = fs.String("targets", "", "comma-separated base URLs to bench head to head with the identical workload (e.g. a single server and shard-fleet coordinators); asserts byte-identical answers and reports per-target scaling")
		sketch      = fs.String("sketch", "", "serve these sketches in-process (comma-separated name=path or bare-path entries; alternative to -addr)")
		sketchMix   = fs.String("sketches", "", "spread queries across named sketches, weighted round-robin (e.g. ic:2,lt:1); empty targets the default sketch")
		mix         = fs.String("mix", "uniform", "seed-set mix: uniform, hotspot or singleton")
		queries     = fs.Int("queries", 256, "number of seed-set queries in the workload")
		maxSeeds    = fs.Int("max-seeds", 8, "maximum seeds per query")
		batch       = fs.Int("batch", 64, "queries per influence:batch request")
		concurrency = fs.Int("concurrency", 1, "closed-loop client goroutines")
		mode        = fs.String("mode", "both", "request mode: single, batch or both")
		seed        = fs.Uint64("seed", 1, "workload generation seed (equal seeds replay identical query streams)")
		out         = fs.String("out", "", "write the JSON report to this file (default stdout)")
		compare     = fs.Bool("compare-kernels", false, "benchmark the epoch and bitpack kernels head to head on the -sketch oracle (no HTTP), assert byte-identical answers, and report the speedup")
		repeat      = fs.Int("repeat", 8, "workload passes per kernel in -compare-kernels mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := workload.ParseMix(*mix)
	if err != nil {
		return err
	}
	if *queries < 1 {
		return fmt.Errorf("-queries must be >= 1, got %d", *queries)
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", *batch)
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", *concurrency)
	}
	if *mode != "single" && *mode != "batch" && *mode != "both" {
		return fmt.Errorf("-mode must be single, batch or both, got %q", *mode)
	}
	var targets []workload.Target
	if *sketchMix != "" {
		if targets, err = workload.ParseTargets(*sketchMix); err != nil {
			return err
		}
	}
	if *compare {
		if *sketch == "" {
			return fmt.Errorf("-compare-kernels requires -sketch (it benchmarks the oracle directly, without HTTP)")
		}
		if *repeat < 1 {
			return fmt.Errorf("-repeat must be >= 1, got %d", *repeat)
		}
		return runCompareKernels(*sketch, m, *queries, *maxSeeds, *batch, *repeat, *seed, *out, stdout)
	}
	if *multi != "" {
		if *addr != "" || *sketch != "" || *sketchMix != "" {
			return fmt.Errorf("-targets is mutually exclusive with -addr, -sketch and -sketches")
		}
		var bases []string
		for _, t := range strings.Split(*multi, ",") {
			if t = strings.TrimSpace(t); t != "" {
				bases = append(bases, strings.TrimSuffix(t, "/"))
			}
		}
		if len(bases) < 2 {
			return fmt.Errorf("-targets needs at least two base URLs, got %d", len(bases))
		}
		return runMultiTarget(bases, m, *queries, *maxSeeds, *batch, *concurrency, *mode, *seed, *out, stdout)
	}

	base := strings.TrimSuffix(*addr, "/")
	switch {
	case *sketch != "" && *addr != "":
		return fmt.Errorf("-addr and -sketch are mutually exclusive")
	case *sketch != "":
		stop, inproc, err := startInProcess(*sketch)
		if err != nil {
			return err
		}
		defer stop()
		base = inproc
	case *addr == "":
		return fmt.Errorf("either -addr or -sketch is required")
	}

	client := newBenchClient(*concurrency)
	health, err := fetchHealth(client, base)
	if err != nil {
		return fmt.Errorf("probing %s/healthz: %w", base, err)
	}

	rep := report{
		Target:      base,
		Mix:         m.String(),
		Queries:     *queries,
		MaxSeeds:    *maxSeeds,
		BatchSize:   *batch,
		Concurrency: *concurrency,
		Seed:        *seed,
		Vertices:    health.Vertices,
		RRSets:      health.RRSets,
	}

	var single, batched []benchRequest
	if targets == nil {
		if health.Vertices < 1 {
			return fmt.Errorf("server reports %d vertices", health.Vertices)
		}
		seedSets, err := workload.SeedSets(m, health.Vertices, *queries, *maxSeeds, rng.NewXoshiro(*seed))
		if err != nil {
			return err
		}
		single = encodeSingleRequests(base+"/v1/influence", seedSets)
		if batched, err = encodeBatchRequests(base+"/v1/influence:batch", seedSets, *batch); err != nil {
			return err
		}
	} else {
		single, batched, rep.Sketches, err = encodeTargetedRequests(client, base, targets, m, *queries, *maxSeeds, *batch, *seed)
		if err != nil {
			return err
		}
	}

	if *mode == "single" || *mode == "both" {
		r := replay(client, single, *concurrency)
		rep.Single = &r
	}
	if *mode == "batch" || *mode == "both" {
		r := replay(client, batched, *concurrency)
		rep.Batch = &r
	}
	if rep.Single != nil && rep.Batch != nil && rep.Batch.DurationSeconds > 0 {
		rep.BatchSpeedup = rep.Single.DurationSeconds / rep.Batch.DurationSeconds
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = stdout.Write(enc)
	return err
}

// startInProcess loads one or more sketches and serves them from a loopback
// listener inside this process, so CI can benchmark the full HTTP path —
// including multi-sketch registry routing — without orchestrating a second
// process. The spec is a comma-separated list of name=path or bare-path
// entries; the first entry becomes the default sketch. The LRU caches are
// disabled: with them on, the first replay pass would warm them and later
// passes would measure cache lookups instead of the query engines. It
// returns a shutdown func and the server's base URL.
func startInProcess(spec string) (func(), string, error) {
	sketches := make(map[string]*core.Oracle)
	defaultName := ""
	for _, entry := range strings.Split(spec, ",") {
		name, path, err := server.ParseSketchSpec(strings.TrimSpace(entry))
		if err != nil {
			return nil, "", err
		}
		oracle, err := sketchio.ReadFile(path)
		if err != nil {
			return nil, "", fmt.Errorf("loading sketch %s: %w", path, err)
		}
		if _, dup := sketches[name]; dup {
			return nil, "", fmt.Errorf("duplicate sketch name %q in -sketch", name)
		}
		sketches[name] = oracle
		if defaultName == "" {
			defaultName = name
		}
	}
	srv, err := server.New(server.Config{Sketches: sketches, DefaultSketch: defaultName, CacheSize: -1})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	// srv.Close stops the build-service runner goroutines the Server starts;
	// Handler-only embedders own that lifecycle.
	stop := func() { _ = hs.Close(); srv.Close() }
	return stop, "http://" + ln.Addr().String(), nil
}

// newBenchClient builds the one HTTP client every replay worker shares. The
// default transport keeps only 2 idle connections per host, so a closed-loop
// run at higher -concurrency would churn through ephemeral connections and
// measure TCP setup instead of the server; sizing the pool to the worker
// count gives each worker a persistent connection, and MaxConnsPerHost caps
// the client at exactly that many (a closed-loop driver never needs more).
func newBenchClient(concurrency int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
			MaxConnsPerHost:     concurrency,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

type healthInfo struct {
	Vertices int `json:"vertices"`
	RRSets   int `json:"rr_sets"`
	// Shards is non-zero when the target is an imserve -coordinator; its
	// healthz reports the fleet size.
	Shards int `json:"shards"`
}

func fetchHealth(client *http.Client, base string) (healthInfo, error) {
	var h healthInfo
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

// fetchSketchInfos asks GET /v1/sketches for the server's loaded sketches,
// keyed by name (the multi-sketch workload needs each target's vertex count).
func fetchSketchInfos(client *http.Client, base string) (map[string]healthInfo, error) {
	resp, err := client.Get(base + "/v1/sketches")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var list struct {
		Sketches []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
			RRSets   int    `json:"rr_sets"`
		} `json:"sketches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	infos := make(map[string]healthInfo, len(list.Sketches))
	for _, s := range list.Sketches {
		infos[s.Name] = healthInfo{Vertices: s.Vertices, RRSets: s.RRSets}
	}
	return infos, nil
}

type influenceRequest struct {
	Seeds []int `json:"seeds"`
}

func toRequest(seeds []graph.VertexID) influenceRequest {
	out := make([]int, len(seeds))
	for i, v := range seeds {
		out[i] = int(v)
	}
	return influenceRequest{Seeds: out}
}

// encodeSingleRequests pre-marshals one influence request per query, so the
// replay loop measures the server, not the client's JSON encoder.
func encodeSingleRequests(url string, seedSets [][]graph.VertexID) []benchRequest {
	reqs := make([]benchRequest, len(seedSets))
	for i, seeds := range seedSets {
		body, _ := json.Marshal(toRequest(seeds))
		reqs[i] = benchRequest{url: url, body: body, queries: 1}
	}
	return reqs
}

// encodeBatchRequests chunks the query stream into influence:batch bodies of
// up to batch queries each.
func encodeBatchRequests(url string, seedSets [][]graph.VertexID, batch int) ([]benchRequest, error) {
	var reqs []benchRequest
	for start := 0; start < len(seedSets); start += batch {
		end := min(start+batch, len(seedSets))
		items := make([]influenceRequest, 0, end-start)
		for _, seeds := range seedSets[start:end] {
			items = append(items, toRequest(seeds))
		}
		body, err := json.Marshal(items)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, benchRequest{url: url, body: body, queries: end - start})
	}
	return reqs, nil
}

// encodeTargetedRequests builds the multi-sketch workload: the query stream
// is assigned to sketch names in weighted round-robin order (deterministic
// for a fixed -sketches and -queries), each target's share is generated from
// its own derived rng stream against its own vertex space, and requests for
// a target go to its /v1/sketches/{name}/... routes. Batch requests never
// span sketches — each batch body targets exactly one sketch endpoint.
func encodeTargetedRequests(client *http.Client, base string, targets []workload.Target, m workload.Mix, queries, maxSeeds, batch int, seed uint64) (single, batched []benchRequest, mixRep []sketchMixReport, err error) {
	infos, err := fetchSketchInfos(client, base)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probing %s/v1/sketches: %w", base, err)
	}
	seq, err := workload.TargetSequence(targets, queries)
	if err != nil {
		return nil, nil, nil, err
	}
	perTarget := make(map[string]int, len(targets))
	for _, name := range seq {
		perTarget[name]++
	}
	single = make([]benchRequest, 0, queries)
	cursor := make(map[string][][]graph.VertexID, len(targets))
	for ti, t := range targets {
		info, ok := infos[t.Name]
		if !ok {
			available := make([]string, 0, len(infos))
			for name := range infos {
				available = append(available, name)
			}
			sort.Strings(available)
			return nil, nil, nil, fmt.Errorf("sketch %q not loaded on %s (loaded: %s)", t.Name, base, strings.Join(available, ", "))
		}
		// Each target draws from its own stream derived from the master
		// seed, so changing one target's weight never perturbs another's
		// seed sets.
		sets, err := workload.SeedSets(m, info.Vertices, perTarget[t.Name], maxSeeds, rng.NewXoshiro(seed+uint64(ti)))
		if err != nil {
			return nil, nil, nil, err
		}
		cursor[t.Name] = sets
		targetBatches, err := encodeBatchRequests(base+"/v1/sketches/"+t.Name+"/influence:batch", sets, batch)
		if err != nil {
			return nil, nil, nil, err
		}
		batched = append(batched, targetBatches...)
		mixRep = append(mixRep, sketchMixReport{
			Name:     t.Name,
			Weight:   t.Weight,
			Vertices: info.Vertices,
			RRSets:   info.RRSets,
			Queries:  perTarget[t.Name],
		})
	}
	// Single-mode requests follow the interleaved order clients would issue.
	for _, name := range seq {
		sets := cursor[name]
		seeds := sets[0]
		cursor[name] = sets[1:]
		body, _ := json.Marshal(toRequest(seeds))
		single = append(single, benchRequest{url: base + "/v1/sketches/" + name + "/influence", body: body, queries: 1})
	}
	return single, batched, mixRep, nil
}

// targetBenchReport is one target's slice of a -targets run.
type targetBenchReport struct {
	Target string `json:"target"`
	// Shards is the fleet size behind the target (1 for a plain server).
	Shards int         `json:"shards"`
	Single *modeReport `json:"single,omitempty"`
	Batch  *modeReport `json:"batch,omitempty"`
	// SingleScaling and BatchScaling are this target's queries/s divided by
	// the first target's — the near-linear-scaling evidence a shard fleet is
	// expected to produce in batch mode.
	SingleScaling float64 `json:"single_scaling,omitempty"`
	BatchScaling  float64 `json:"batch_scaling,omitempty"`
}

// clusterReport is the JSON document a -targets run emits (BENCH_cluster.json
// in CI).
type clusterReport struct {
	Mix         string `json:"mix"`
	Queries     int    `json:"queries"`
	MaxSeeds    int    `json:"max_seeds"`
	BatchSize   int    `json:"batch_size"`
	Concurrency int    `json:"concurrency"`
	Seed        uint64 `json:"seed"`
	Vertices    int    `json:"vertices"`
	RRSets      int    `json:"rr_sets"`
	// ProbeQueries is how many workload queries (plus one batch of them) every
	// target answered byte-identically before any timing ran.
	ProbeQueries int                 `json:"probe_queries"`
	Targets      []targetBenchReport `json:"targets"`
}

// fetchRaw posts one body and returns the status and raw response bytes.
func fetchRaw(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// runMultiTarget replays the identical workload against every target in turn
// and reports per-target throughput plus scaling relative to the first. The
// probe phase doubles as a correctness gate and a connection warm-up: every
// target must answer the probe queries byte-identically to the first target,
// which is what makes the later throughput numbers comparable at all — a
// fleet that answers differently is misassembled, not fast.
func runMultiTarget(bases []string, m workload.Mix, queries, maxSeeds, batch, concurrency int, mode string, seed uint64, out string, stdout io.Writer) error {
	client := newBenchClient(concurrency)
	healths := make([]healthInfo, len(bases))
	for i, base := range bases {
		h, err := fetchHealth(client, base)
		if err != nil {
			return fmt.Errorf("probing %s/healthz: %w", base, err)
		}
		if i > 0 && (h.Vertices != healths[0].Vertices || h.RRSets != healths[0].RRSets) {
			return fmt.Errorf("target %s serves %d vertices / %d rr_sets, %s serves %d / %d — not the same sketch",
				base, h.Vertices, h.RRSets, bases[0], healths[0].Vertices, healths[0].RRSets)
		}
		healths[i] = h
	}
	if healths[0].Vertices < 1 {
		return fmt.Errorf("target %s reports %d vertices", bases[0], healths[0].Vertices)
	}
	seedSets, err := workload.SeedSets(m, healths[0].Vertices, queries, maxSeeds, rng.NewXoshiro(seed))
	if err != nil {
		return err
	}

	// Probe gate: a slice of the workload, singly and batched, must come back
	// byte-identical from every target.
	probeN := min(8, len(seedSets))
	probeBodies := make([][]byte, 0, probeN+1)
	for _, seeds := range seedSets[:probeN] {
		body, _ := json.Marshal(toRequest(seeds))
		probeBodies = append(probeBodies, body)
	}
	batchItems := make([]influenceRequest, probeN)
	for i, seeds := range seedSets[:probeN] {
		batchItems[i] = toRequest(seeds)
	}
	batchBody, err := json.Marshal(batchItems)
	if err != nil {
		return err
	}
	probeBodies = append(probeBodies, batchBody)
	var want [][]byte
	for ti, base := range bases {
		got := make([][]byte, len(probeBodies))
		for pi, body := range probeBodies {
			url := base + "/v1/influence"
			if pi == len(probeBodies)-1 {
				url = base + "/v1/influence:batch"
			}
			status, raw, err := fetchRaw(client, url, body)
			if err != nil {
				return fmt.Errorf("probing %s: %w", url, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("probing %s: status %d: %s", url, status, raw)
			}
			got[pi] = raw
		}
		if ti == 0 {
			want = got
			continue
		}
		for pi := range got {
			if !bytes.Equal(got[pi], want[pi]) {
				return fmt.Errorf("target %s diverges from %s on probe query %d:\n %s\n vs\n %s",
					base, bases[0], pi, got[pi], want[pi])
			}
		}
	}

	rep := clusterReport{
		Mix:          m.String(),
		Queries:      queries,
		MaxSeeds:     maxSeeds,
		BatchSize:    batch,
		Concurrency:  concurrency,
		Seed:         seed,
		Vertices:     healths[0].Vertices,
		RRSets:       healths[0].RRSets,
		ProbeQueries: probeN,
	}
	for i, base := range bases {
		tr := targetBenchReport{Target: base, Shards: max(healths[i].Shards, 1)}
		if mode == "single" || mode == "both" {
			r := replay(client, encodeSingleRequests(base+"/v1/influence", seedSets), concurrency)
			tr.Single = &r
		}
		if mode == "batch" || mode == "both" {
			batched, err := encodeBatchRequests(base+"/v1/influence:batch", seedSets, batch)
			if err != nil {
				return err
			}
			r := replay(client, batched, concurrency)
			tr.Batch = &r
		}
		if base0 := rep.Targets; len(base0) > 0 {
			if tr.Single != nil && base0[0].Single != nil && base0[0].Single.QueriesPerSecond > 0 {
				tr.SingleScaling = tr.Single.QueriesPerSecond / base0[0].Single.QueriesPerSecond
			}
			if tr.Batch != nil && base0[0].Batch != nil && base0[0].Batch.QueriesPerSecond > 0 {
				tr.BatchScaling = tr.Batch.QueriesPerSecond / base0[0].Batch.QueriesPerSecond
			}
		} else {
			if tr.Single != nil {
				tr.SingleScaling = 1
			}
			if tr.Batch != nil {
				tr.BatchScaling = 1
			}
		}
		rep.Targets = append(rep.Targets, tr)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out != "" {
		return os.WriteFile(out, enc, 0o644)
	}
	_, err = stdout.Write(enc)
	return err
}

// replay issues every request from concurrency closed-loop clients, pulling
// work from a shared counter, and aggregates latencies and errors. A request
// errs when the transport fails, the status is not 200, or (batch mode) any
// item in the response carries a per-item error. Failed requests count only
// toward Errors: the latency quantiles and the throughput rates aggregate
// successful requests exclusively, so a run that hits errors shows degraded
// numbers plus a non-zero Errors field rather than fast-failing its way to
// an apparent improvement.
func replay(client *http.Client, reqs []benchRequest, concurrency int) modeReport {
	latencies := make([]float64, len(reqs))
	oks := make([]bool, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				oks[i] = issue(client, reqs[i].url, reqs[i].body)
				latencies[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	okRequests, okQueries, totalQueries := 0, 0, 0
	okLatencies := make([]float64, 0, len(reqs))
	for i, ok := range oks {
		totalQueries += reqs[i].queries
		if !ok {
			continue
		}
		okRequests++
		okQueries += reqs[i].queries
		okLatencies = append(okLatencies, latencies[i])
	}
	rep := modeReport{
		Requests:        len(reqs),
		Queries:         totalQueries,
		Errors:          len(reqs) - okRequests,
		DurationSeconds: elapsed,
	}
	if elapsed > 0 {
		rep.RequestsPerSecond = float64(okRequests) / elapsed
		rep.QueriesPerSecond = float64(okQueries) / elapsed
	}
	if len(okLatencies) > 0 {
		sort.Float64s(okLatencies)
		rep.Latency = latencyReport{
			MeanMs: stats.Mean(okLatencies),
			P50Ms:  stats.Percentile(okLatencies, 50),
			P90Ms:  stats.Percentile(okLatencies, 90),
			P99Ms:  stats.Percentile(okLatencies, 99),
			MaxMs:  okLatencies[len(okLatencies)-1],
		}
	}
	return rep
}

// issue posts one body and reports whether the request fully succeeded,
// scanning batch responses for per-item errors.
func issue(client *http.Client, url string, body []byte) bool {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if bytes.HasPrefix(bytes.TrimSpace(raw), []byte("[")) {
		var items []struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &items); err != nil {
			return false
		}
		for _, item := range items {
			if item.Error != "" {
				return false
			}
		}
	}
	return true
}
