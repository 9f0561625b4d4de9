package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"imdist/internal/cluster"
	"imdist/internal/core"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// Connection and worker counts. Every one is explicit and checked against
// nproc before the run starts (see checkCounts).
const (
	closedLoopConns   = 1    // every closed-loop phase: one client, one connection
	openLoopConns     = 2    // senders of the open-loop phase
	shardBatchWorkers = 1    // per shard, so the fleet uses as many cores as the single server
	efficiencyWorkers = 2    // the parallel-efficiency pass compares this many workers with 1
	setupRepeats      = 3    // input generation runs this often; setup_s takes the median
	buildRepeats      = 3    // builds and loads run this often; build_s, spill_build_s and load_s take the medians
	queryRounds       = 6    // query phases are interleaved in this many rounds
	checkedSingles    = 1024 // single answers checked against direct oracle calls and the fleet
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    uint64
	seconds int
	traced  bool
	nproc   int
	dir     string // scratch files
	tr      *tracer

	e2e, layer        map[string]metric
	attempted, failed int
	gates             []string // correctness gates that failed
	setup             time.Duration
	phases            []int32 // phase spans, checked for unexplained time

	// Repeated builds and loads, in seconds, with the last build's layer
	// numbers and the first sketch's digest.
	builds, spills, loads, opens, firsts []float64
	memStats, spillStats                 buildStats
	sketchSum                            [32]byte
	sketchBytes                          int64
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

func (b *bench) gate(ok bool, format string, args ...any) {
	if !ok {
		b.gates = append(b.gates, fmt.Sprintf(format, args...))
	}
}

// phase opens a phase span (a no-op when untraced). Phases are the
// end-to-end steps whose time the layer spans under them must explain.
func (b *bench) phase(name string) int32 {
	id := b.tr.begin("phase:"+name, 0, 0)
	if id != 0 {
		b.phases = append(b.phases, id)
	}
	return id
}

// inputs are everything generated from the workload seed: the graph with its
// probabilities and the query streams, pre-encoded as request bodies so the
// client does no encoding while it is timed.
type inputs struct {
	ig                                *graph.InfluenceGraph
	single, batch                     [][]graph.VertexID
	singleBodies, batchBodies         [][]byte
	singleWarmBodies, batchWarmBodies [][]byte
	openBodies                        [][]byte
	fingerprint                       [32]byte
}

// Stream ids under the workload seed. Warm-up streams are different draws of
// the same mix, so a warm-up never pre-answers the timed stream.
const (
	streamGraph = iota
	streamSingle
	streamBatch
	streamSingleWarm
	streamBatchWarm
	streamOpen
)

func makeInputs(sp spec, seed uint64, seconds int) (*inputs, error) {
	g, err := gen.BarabasiAlbert(sp.n, sp.m, rng.Split(rng.Xoshiro, seed, streamGraph))
	if err != nil {
		return nil, err
	}
	ig, err := workload.Assign(g, sp.prob, nil)
	if err != nil {
		return nil, err
	}
	in := &inputs{ig: ig}
	stream := func(id, count int) ([][]graph.VertexID, error) {
		return workload.SeedSets(sp.mix, sp.n, count, sp.maxS, rng.Split(rng.Xoshiro, seed, uint64(id)))
	}
	singles := scaled(sp.singles, seconds, 8)
	batches := scaled(sp.batches, seconds, 4)
	if in.single, err = stream(streamSingle, singles); err != nil {
		return nil, err
	}
	if in.batch, err = stream(streamBatch, batches*batchSize); err != nil {
		return nil, err
	}
	singleWarm, err := stream(streamSingleWarm, max(1, singles/4))
	if err != nil {
		return nil, err
	}
	batchWarm, err := stream(streamBatchWarm, max(1, batches/4)*batchSize)
	if err != nil {
		return nil, err
	}
	open, err := stream(streamOpen, scaled(sp.openCount, seconds, 8))
	if err != nil {
		return nil, err
	}
	in.singleBodies = singleBodies(in.single)
	in.singleWarmBodies = singleBodies(singleWarm)
	in.openBodies = singleBodies(open)
	in.batchBodies = batchBodies(in.batch)
	in.batchWarmBodies = batchBodies(batchWarm)

	h := sha256.New()
	var buf []byte
	for v := range ig.NumVertices() {
		buf = buf[:0]
		for i, u := range ig.InNeighbors(graph.VertexID(v)) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ig.InProbabilities(graph.VertexID(v))[i]))
		}
		h.Write(buf)
	}
	for _, set := range [][][]byte{in.singleBodies, in.batchBodies, in.singleWarmBodies, in.batchWarmBodies, in.openBodies} {
		for _, body := range set {
			h.Write(body)
		}
	}
	copy(in.fingerprint[:], h.Sum(nil))
	return in, nil
}

func seedInts(set []graph.VertexID) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = int(v)
	}
	return out
}

type influenceBody struct {
	Seeds []int `json:"seeds"`
}

func singleBodies(sets [][]graph.VertexID) [][]byte {
	out := make([][]byte, len(sets))
	for i, s := range sets {
		out[i], _ = json.Marshal(influenceBody{seedInts(s)}) // ints always encode
	}
	return out
}

func batchBodies(sets [][]graph.VertexID) [][]byte {
	out := make([][]byte, 0, len(sets)/batchSize)
	for i := 0; i+batchSize <= len(sets); i += batchSize {
		items := make([]influenceBody, batchSize)
		for j := range items {
			items[j] = influenceBody{seedInts(sets[i+j])}
		}
		body, _ := json.Marshal(items)
		out = append(out, body)
	}
	return out
}

// buildStats are the per-layer numbers of one sketch build.
type buildStats struct {
	rounds      []time.Duration // BuildTarget rounds: RR sampling plus the store's append
	index       time.Duration   // Oracle(): the member index
	write       time.Duration   // sketchio.WriteFile
	spillBytes  int64
	residentMax int64
}

func (s buildStats) roundTotal() time.Duration {
	var t time.Duration
	for _, r := range s.rounds {
		t += r
	}
	return t
}

// progress returns a BuildTarget.Progress hook that timestamps every round
// and records it as a span under parent.
func (b *bench) progress(st *buildStats, parent int32) func(core.BuildProgress) error {
	last := time.Now()
	lastNs := b.tr.nowOrZero()
	return func(p core.BuildProgress) error {
		now := time.Now()
		if p.Appended > 0 {
			st.rounds = append(st.rounds, now.Sub(last))
			b.tr.record("diffusion.rr_round", parent, lastNs)
		}
		last, lastNs = now, b.tr.nowOrZero()
		st.spillBytes = p.SpillBytes
		st.residentMax = max(st.residentMax, p.MemBytes)
		return nil
	}
}

// buildInMemory is the build service's in-memory path, timed end to end as
// build_s.
func (b *bench) buildInMemory(ig *graph.InfluenceGraph, out string) (time.Duration, buildStats, error) {
	var st buildStats
	ph := b.phase("build")
	start := time.Now()
	builder, err := core.NewSketchBuilder(ig, b.sp.model, b.nproc, b.seed)
	if err != nil {
		return 0, st, err
	}
	if _, err := builder.BuildToTarget(context.Background(), core.BuildTarget{MaxSets: b.sp.sets, Progress: b.progress(&st, ph)}); err != nil {
		return 0, st, err
	}
	var o *core.Oracle
	if st.index, err = b.tr.timed("core.oracle", ph, func() (err error) { o, err = builder.Oracle(); return }); err != nil {
		return 0, st, err
	}
	if st.write, err = b.tr.timed("sketchio.write", ph, func() error { return sketchio.WriteFile(out, o) }); err != nil {
		return 0, st, err
	}
	total := time.Since(start)
	b.tr.end(ph, 0, 0, 0)
	return total, st, nil
}

// buildSpill builds the same sets through the spill store at the default
// memory budget, timed end to end as spill_build_s.
func (b *bench) buildSpill(ig *graph.InfluenceGraph, spillPath, out string) (time.Duration, buildStats, error) {
	var st buildStats
	ph := b.phase("spill_build")
	start := time.Now()
	builder, store, _, err := sketchio.BuildSpill(context.Background(), spillPath, ig, b.sp.model, b.nproc, b.seed, 0,
		core.BuildTarget{MaxSets: b.sp.sets, Progress: b.progress(&st, ph)})
	if store != nil {
		defer func() {
			_ = store.Close() // read-only by now; the file is removed next
			os.Remove(spillPath)
		}()
	}
	if err != nil {
		return 0, st, err
	}
	var o *core.Oracle
	if st.index, err = b.tr.timed("core.oracle", ph, func() (err error) { o, err = builder.Oracle(); return }); err != nil {
		return 0, st, err
	}
	if st.write, err = b.tr.timed("sketchio.write", ph, func() error { return sketchio.WriteFile(out, o) }); err != nil {
		return 0, st, err
	}
	total := time.Since(start)
	b.tr.end(ph, 0, 0, 0)
	return total, st, nil
}

func fileDigest(path string) ([32]byte, int64, error) {
	var sum [32]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return sum, 0, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, n, nil
}

// firstQuery is the load phase's query: the first query of the single stream
// with two or more seeds, so a lazily packed kernel index is built inside
// load_s on every workload that has one.
func firstQuery(stream [][]graph.VertexID) []graph.VertexID {
	for _, s := range stream {
		if len(s) > 1 {
			return s
		}
	}
	return stream[0]
}

// fleet is the split sketch served by shard servers behind a coordinator.
type fleet struct {
	mapped  []*sketchio.MappedSketch
	servers []*server.Server
	shards  []*endpoint
	coord   *endpoint
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.close()
	}
	for _, e := range f.shards {
		e.close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, m := range f.mapped {
		m.Close()
	}
}

func (b *bench) startFleet(sketchPath string, phase int32) (*fleet, time.Duration, error) {
	f := &fleet{}
	var paths []string
	split, err := b.tr.timed("sketchio.split", phase, func() (err error) {
		paths, err = sketchio.SplitSketch(sketchPath, filepath.Join(b.dir, "shard"), shardCount)
		return err
	})
	if err != nil {
		return f, 0, err
	}
	var targets []string
	for _, p := range paths {
		var m *sketchio.MappedSketch
		if _, err := b.tr.timed("sketchio.open", phase, func() (err error) { m, err = sketchio.OpenMapped(p); return }); err != nil {
			return f, 0, err
		}
		f.mapped = append(f.mapped, m)
		s, e, err := b.serve(m.Oracle(), 0, shardBatchWorkers, "server.shard", kindShard, phase)
		if err != nil {
			return f, 0, err
		}
		f.servers = append(f.servers, s)
		f.shards = append(f.shards, e)
		targets = append(targets, e.url)
	}
	_, err = b.tr.timed("cluster.start", phase, func() error {
		c, err := cluster.New(cluster.Config{Targets: targets})
		if err != nil {
			return err
		}
		var h http.Handler = c.Handler()
		if b.tr != nil {
			h = b.tr.wrap("cluster.coordinator", kindCoord, h)
		}
		f.coord, err = listen(h)
		return err
	})
	return f, split, err
}

// serve starts a server over o on a loopback listener, its handler wrapped
// in a span-recording middleware when the run is traced.
func (b *bench) serve(o *core.Oracle, cacheSize, workers int, spanName string, kind int, phase int32) (*server.Server, *endpoint, error) {
	var s *server.Server
	var e *endpoint
	_, err := b.tr.timed("server.start", phase, func() (err error) {
		if s, err = server.New(server.Config{Oracle: o, BatchWorkers: workers, CacheSize: cacheSize}); err != nil {
			return err
		}
		var h http.Handler = s.Handler()
		if b.tr != nil {
			h = b.tr.wrap(spanName, kind, h)
		}
		if e, err = listen(h); err != nil {
			s.Close()
		}
		return err
	})
	return s, e, err
}

type cacheStats struct {
	Hits   uint64 `json:"cache_hits"`
	Misses uint64 `json:"cache_misses"`
}

func (c *cacheStats) add(o cacheStats) { c.Hits += o.Hits; c.Misses += o.Misses }

func healthz(url string) (cacheStats, error) {
	var cs cacheStats
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return cs, json.NewDecoder(resp.Body).Decode(&cs)
}

// queryPhase runs one round of a query phase, n requests, inside its phase
// span, after a collection so garbage from the previous phase is not
// collected inside it.
func (b *bench) queryPhase(name string, n int, fn func(phase int32)) {
	if n == 0 {
		return
	}
	runtime.GC()
	ph := b.phase(name)
	fn(ph)
	b.tr.end(ph, 0, 0, 0)
}

// share returns round r's contiguous share of items out of queryRounds.
func share[T any](items []T, r int) []T {
	return items[r*len(items)/queryRounds : (r+1)*len(items)/queryRounds]
}

// account adds a pass's operations to the run's totals.
func (b *bench) account(p pass) {
	b.attempted += p.attempted
	b.failed += p.failed
}

// warm replays bodies as part of set-up; its failures still count.
func (b *bench) warm(c *client, url string, bodies [][]byte, phase int32) {
	var p pass
	c.closedLoop(&p, url, bodies, 0, phase, false)
	b.account(p)
}

func repeat(n int, body []byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = body
	}
	return out
}

// run executes the workload end to end and fills the metrics.
func (b *bench) run() error {
	in, err := b.genInputs()
	if err != nil {
		return err
	}
	memPath := filepath.Join(b.dir, "mem.sketch")
	for range buildRepeats {
		if err := b.buildRep(in.ig, memPath); err != nil {
			return err
		}
	}
	first := firstQuery(in.single)
	var mapped *sketchio.MappedSketch
	for range buildRepeats {
		if mapped != nil {
			mapped.Close()
		}
		if mapped, err = b.loadRep(memPath, first); err != nil {
			return err
		}
	}
	defer mapped.Close()
	o := mapped.Oracle()

	// Set-up: split and load the shards, start every server and warm each
	// query path on its own stream.
	serveStart := time.Now()
	ph := b.phase("setup_serve")
	fl, splitDur, err := b.startFleet(memPath, ph)
	defer fl.close()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	srv, single, err := b.serve(o, 0, b.nproc, "server.handler", kindServer, ph)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer single.close()
	seedSrv, seedsEP, err := b.serve(o, -1, b.nproc, "server.handler", kindServer, ph)
	if err != nil {
		return err
	}
	defer seedSrv.Close()
	defer seedsEP.close()
	c := newClient(closedLoopConns, b.tr)
	defer c.close()
	seedsBody := []byte(fmt.Sprintf(`{"k":%d}`, seedsK))
	b.warm(c, single.url+"/v1/influence", in.singleWarmBodies, ph)
	b.warm(c, single.url+"/v1/influence:batch", in.batchWarmBodies, ph)
	warmSeeds := []byte(fmt.Sprintf(`{"k":%d}`, warmSeedsK))
	b.warm(c, seedsEP.url+"/v1/seeds", repeat(1, warmSeeds), ph)
	b.warm(c, fl.coord.url+"/v1/influence:batch", in.batchWarmBodies, ph)
	b.warm(c, fl.coord.url+"/v1/seeds", repeat(1, warmSeeds), ph)
	b.tr.end(ph, 0, 0, 0)
	b.setup += time.Since(serveStart)
	b.setE2E("setup_s", "s", b.setup.Seconds())

	// Query phases, closed loop over one connection each, interleaved in
	// queryRounds rounds that each send their share of every stream.
	var singlePass, batchPass, seedsPass, fleetBatch, fleetSeeds pass
	var before, midCache, after cacheStats
	seedsCalls, fleetSeedsCalls := repeat(b.sp.seedsCalls, seedsBody), repeat(b.sp.fleetSeedsCalls, seedsBody)
	for r := range queryRounds {
		cs, err := healthz(single.url)
		if err != nil {
			return err
		}
		before.add(cs)
		b.queryPhase("single", len(share(in.singleBodies, r)), func(ph int32) {
			c.closedLoop(&singlePass, single.url+"/v1/influence", share(in.singleBodies, r), checkedSingles, ph, b.traced)
		})
		if cs, err = healthz(single.url); err != nil {
			return err
		}
		midCache.add(cs)
		b.queryPhase("batch", len(share(in.batchBodies, r)), func(ph int32) {
			c.closedLoop(&batchPass, single.url+"/v1/influence:batch", share(in.batchBodies, r), 0, ph, b.traced)
		})
		if cs, err = healthz(single.url); err != nil {
			return err
		}
		after.add(cs)
		b.queryPhase("seeds", len(share(seedsCalls, r)), func(ph int32) {
			c.closedLoop(&seedsPass, seedsEP.url+"/v1/seeds", share(seedsCalls, r), len(seedsCalls), ph, b.traced)
		})
		b.queryPhase("fleet_batch", len(share(in.batchBodies, r)), func(ph int32) {
			c.closedLoop(&fleetBatch, fl.coord.url+"/v1/influence:batch", share(in.batchBodies, r), 0, ph, b.traced)
		})
		b.queryPhase("fleet_seeds", len(share(fleetSeedsCalls, r)), func(ph int32) {
			c.closedLoop(&fleetSeeds, fl.coord.url+"/v1/seeds", share(fleetSeedsCalls, r), len(fleetSeedsCalls), ph, b.traced)
		})
	}
	b.setE2E("build_s", "s", median(b.builds))
	b.setE2E("spill_build_s", "s", median(b.spills))
	b.setE2E("load_s", "s", median(b.loads))
	for _, p := range []pass{singlePass, batchPass, seedsPass, fleetBatch, fleetSeeds} {
		b.account(p)
	}
	b.setE2E("single_p50_ms", "ms", 1e3*singlePass.roundMedian(func(r round) float64 {
		return median(seconds(selectDur(singlePass.latencies[r.from:r.to], singlePass.traced[r.from:r.to], false)))
	}))
	qps := func(r round) float64 { return float64((r.to-r.from)*batchSize) / r.elapsed.Seconds() }
	b.setE2E("batch_qps", "queries/s", batchPass.roundMedian(qps))
	b.setE2E("fleet_batch_qps", "queries/s", fleetBatch.roundMedian(qps))
	b.setE2E("seeds_ms", "ms", 1e3*median(seconds(seedsPass.latencies)))
	b.setE2E("fleet_seeds_ms", "ms", 1e3*median(seconds(fleetSeeds.latencies)))
	b.gate(fleetBatch.digest() == batchPass.digest(), "fleet batch answers differ from the single process")
	// The fleet also answers the head of the single stream, untimed, and
	// must return the single process's bytes.
	var fleetSingle pass
	checked := in.singleBodies[:len(singlePass.kept)]
	b.queryPhase("fleet_single_check", len(checked), func(ph int32) {
		c.closedLoop(&fleetSingle, fl.coord.url+"/v1/influence", checked, len(checked), ph, false)
	})
	b.account(fleetSingle)
	for i, body := range fleetSingle.kept {
		b.gate(bytes.Equal(body, singlePass.kept[i]), "fleet answer to single query %d differs from the single process", i)
	}
	for _, body := range append(seedsPass.kept[1:], fleetSeeds.kept...) {
		b.gate(bytes.Equal(body, seedsPass.kept[0]), "seeds answers differ between calls or from the fleet")
	}

	if err := b.checkAnswers(o, in, singlePass, seedsPass); err != nil {
		return err
	}

	if b.traced {
		if err := b.layerMetrics(layerInputs{
			in: in, o: o, c: c, singleURL: single.url, split: splitDur,
			single: singlePass, batch: batchPass, seeds: seedsPass,
			cacheBefore: before, cacheMid: midCache, cacheAfter: after,
		}); err != nil {
			return err
		}
	}
	b.setE2E("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// genInputs generates the inputs setupRepeats times, adds the median time to
// set-up, and checks that every repetition produced the same inputs.
func (b *bench) genInputs() (*inputs, error) {
	var in *inputs
	var times []float64
	for range setupRepeats {
		runtime.GC()
		ph := b.phase("setup_inputs")
		var next *inputs
		d, err := b.tr.timed("gen.inputs", ph, func() (err error) { next, err = makeInputs(b.sp, b.seed, b.seconds); return })
		b.tr.end(ph, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if in != nil {
			b.gate(next.fingerprint == in.fingerprint, "input generation is not deterministic")
		}
		in = next
	}
	b.setup += time.Duration(median(times) * float64(time.Second))
	return in, nil
}

// buildRep builds the sketch in memory into path, then through the spill
// store, and checks that both files are the same bytes as the first build.
func (b *bench) buildRep(ig *graph.InfluenceGraph, path string) error {
	runtime.GC()
	d, st, err := b.buildInMemory(ig, path)
	if err != nil {
		return fmt.Errorf("in-memory build: %w", err)
	}
	b.attempted++
	b.builds, b.memStats = append(b.builds, d.Seconds()), st

	spillOut := filepath.Join(b.dir, "spill.sketch")
	defer os.Remove(spillOut)
	runtime.GC()
	d, st, err = b.buildSpill(ig, filepath.Join(b.dir, "build.spill"), spillOut)
	if err != nil {
		return fmt.Errorf("spill build: %w", err)
	}
	b.attempted++
	b.spills, b.spillStats = append(b.spills, d.Seconds()), st

	memSum, n, err := fileDigest(path)
	if err != nil {
		return err
	}
	spillSum, _, err := fileDigest(spillOut)
	if err != nil {
		return err
	}
	if len(b.builds) == 1 {
		b.sketchSum, b.sketchBytes = memSum, n
	}
	ok := memSum == spillSum && memSum == b.sketchSum
	b.gate(ok, "build %d: spill-built or repeated sketch differs from the first in-memory sketch", len(b.builds))
	if !ok {
		b.failed++
	}
	return nil
}

// loadRep mmaps the sketch at path and answers the first query, lazy packing
// included, timed as one load. The caller owns the returned sketch.
func (b *bench) loadRep(path string, first []graph.VertexID) (*sketchio.MappedSketch, error) {
	runtime.GC()
	ph := b.phase("load")
	var mapped *sketchio.MappedSketch
	start := time.Now()
	open, err := b.tr.timed("sketchio.open", ph, func() (err error) { mapped, err = sketchio.OpenMapped(path); return })
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	firstDur, err := b.tr.timed("core.first_query", ph, func() error { _, err := mapped.Oracle().Coverage(first); return err })
	if err != nil {
		mapped.Close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	b.loads = append(b.loads, time.Since(start).Seconds())
	b.tr.end(ph, 0, 0, 0)
	b.opens, b.firsts = append(b.opens, open.Seconds()), append(b.firsts, firstDur.Seconds())
	b.attempted++
	return mapped, nil
}

// checkAnswers compares the single phase's first checkedSingles answers with
// direct oracle calls encoded the way the server encodes them, and checks the
// seeds answer.
func (b *bench) checkAnswers(o *core.Oracle, in *inputs, single, seeds pass) error {
	for i, body := range single.kept {
		canon := server.CanonicalSeeds(seedInts(in.single[i]))
		inf, err := o.Influence(canon)
		if err != nil {
			return err
		}
		want, err := json.Marshal(server.InfluenceResponse{Influence: inf, CI99: o.ConfidenceHalfWidth(2.576), Seeds: len(canon)})
		if err != nil {
			return err
		}
		b.gate(bytes.Equal(bytes.TrimSpace(body), want), "query %d: HTTP answer %s differs from the oracle's %s", i, bytes.TrimSpace(body), want)
	}
	var sr server.SeedsResponse
	if len(seeds.kept) == 0 || json.Unmarshal(seeds.kept[0], &sr) != nil {
		b.gate(false, "no decodable seeds answer")
		return nil
	}
	b.gate(len(sr.Seeds) == seedsK, "seeds answer has %d seeds, want %d", len(sr.Seeds), seedsK)
	return nil
}

// peakRSSMB returns the process's peak resident set size in MB (0 where
// /proc is unavailable).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscan(string(rest), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
