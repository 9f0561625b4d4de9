package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/server"
)

// layerInputs is what the traced run hands from the end-to-end phases to
// the per-layer accounting.
type layerInputs struct {
	in        *inputs
	o         *core.Oracle
	c         *client
	singleURL string

	split                             time.Duration
	single, batch, seeds              pass
	cacheBefore, cacheMid, cacheAfter cacheStats
}

// layerMetrics runs the direct layer passes and derives every per-layer
// metric from the trace. Direct passes call the program's layers on the same
// streams the HTTP phases sent, so the kernel's share of a request can be
// taken out of the handler's time.
func (b *bench) layerMetrics(li layerInputs) error {
	o, in := li.o, li.in
	sets := float64(b.sp.sets)

	// internal/diffusion: RR sampling.
	b.setLayer("rr.sets_per_s", "sets/s", sets/b.memStats.roundTotal().Seconds())
	ph := b.phase("rr_count")
	var cost diffusion.Cost
	var same bool
	b.tr.timed("diffusion.count_pass", ph, func() error {
		cost, same = rrCount(in.ig, b.sp.model, b.seed, b.sp.countSets, o)
		return nil
	})
	b.tr.end(ph, 0, 0, 0)
	b.gate(same, "counting pass does not reproduce the sketch's first RR sets")
	b.setLayer("rr.traversal_per_set", "count", float64(cost.Traversal())/float64(b.sp.countSets))
	b.setLayer("rr.vertices_per_set", "count", float64(cost.SampleVertices)/float64(b.sp.countSets))
	ph = b.phase("rr_parallel")
	var perWorkers [2][]float64
	for range 3 {
		for i, w := range []int{1, efficiencyWorkers} {
			builder, err := core.NewSketchBuilder(in.ig, b.sp.model, w, b.seed)
			if err != nil {
				return err
			}
			d, err := b.tr.timed(fmt.Sprintf("diffusion.append_%dw", w), ph, func() error { return builder.AppendBatch(b.sp.countSets / 2) })
			if err != nil {
				return err
			}
			perWorkers[i] = append(perWorkers[i], d.Seconds())
		}
	}
	b.tr.end(ph, 0, 0, 0)
	b.setLayer("rr.parallel_efficiency", "ratio", median(perWorkers[0])/(efficiencyWorkers*median(perWorkers[1])))

	// internal/core member index.
	b.setLayer("index.build_s", "s", b.memStats.index.Seconds())
	var entries int64
	for i := range o.NumSets() {
		entries += int64(len(o.RRSet(i)))
	}
	b.setLayer("index.entries", "count", float64(entries))

	// internal/sketchio.
	b.setLayer("encode_s", "s", b.memStats.write.Seconds())
	b.setLayer("sketch_bytes", "bytes", float64(b.sketchBytes))
	b.setLayer("split_s", "s", li.split.Seconds())
	b.setLayer("spill.append_overhead_s", "s", (b.spillStats.roundTotal() - b.memStats.roundTotal()).Seconds())
	b.setLayer("spill.index_build_s", "s", b.spillStats.index.Seconds())
	b.setLayer("spill.bytes", "bytes", float64(b.spillStats.spillBytes))
	b.setLayer("spill.resident_peak_bytes", "bytes", float64(b.spillStats.residentMax))
	b.setLayer("load.open_s", "s", median(b.opens))
	b.setLayer("load.first_query_s", "s", median(b.firsts))

	// internal/core kernels, called directly on the HTTP phases' streams.
	ph = b.phase("kernel")
	// Seed sets reach the kernel canonicalized, as the handlers pass them.
	canon := func(sets [][]graph.VertexID) [][]graph.VertexID {
		out := make([][]graph.VertexID, len(sets))
		for i, s := range sets {
			out[i] = server.CanonicalSeeds(seedInts(s))
		}
		return out
	}
	singleCanon, batchCanon := canon(in.single), canon(in.batch)
	var single []float64
	for _, s := range singleCanon {
		d, err := b.tr.timed("core.coverage", ph, func() error { _, err := o.Coverage(s); return err })
		if err != nil {
			return err
		}
		single = append(single, d.Seconds())
	}
	var batchTotal time.Duration
	for i := 0; i+batchSize <= len(batchCanon); i += batchSize {
		d, _ := b.tr.timed("core.batch_coverage", ph, func() error {
			o.BatchCoverage(batchCanon[i:i+batchSize], b.nproc) // the stream is valid: no item errors
			return nil
		})
		batchTotal += d
	}
	b.tr.end(ph, 0, 0, 0)
	kernelSingleUs := 1e6 * median(single)
	kernelBatchUs := 1e6 * batchTotal.Seconds() / float64(len(in.batch))
	b.setLayer("kernel.single_us", "us", kernelSingleUs)
	b.setLayer("kernel.batch_us_per_query", "us", kernelBatchUs)
	entriesPerQuery, wordsPerQuery, packed := kernelWork(o, in.single)
	b.setLayer("kernel.entries_per_query", "count", entriesPerQuery)
	b.setLayer("kernel.words_per_query", "count", wordsPerQuery)
	b.setLayer("kernel.packed_bytes", "bytes", packed)

	// internal/core greedy.
	ph = b.phase("greedy")
	var greedySeeds []graph.VertexID
	greedy, _ := b.tr.timed("core.greedy", ph, func() error { greedySeeds = o.GreedySeeds(seedsK); return nil })
	var marginal []float64
	for range 3 {
		d, err := b.tr.timed("core.marginal_all", ph, func() error { _, err := o.MarginalCoverage(nil, nil); return err })
		if err != nil {
			return err
		}
		marginal = append(marginal, d.Seconds())
	}
	b.tr.end(ph, 0, 0, 0)
	b.setLayer("greedy.ms", "ms", 1e3*greedy.Seconds())
	b.setLayer("marginal.all_ms", "ms", 1e3*median(marginal))
	var sr server.SeedsResponse
	if len(li.seeds.kept) > 0 && json.Unmarshal(li.seeds.kept[0], &sr) == nil {
		b.gate(sameSeeds(sr.Seeds, greedySeeds), "HTTP seeds differ from the oracle's greedy seeds")
	}

	// internal/server, from the middleware spans.
	spans := b.tr.snapshot()
	ix := indexTrace(spans)
	var handler, transport []float64
	var httpBytes, httpQueries int64
	for _, cid := range b.requests(ix, "single") {
		for _, hid := range ix.under(cid, "server.handler") {
			h := ix.get(hid)
			handler = append(handler, h.dur().Seconds())
			transport = append(transport, ix.self(cid).Seconds())
			httpBytes += h.BytesIn + h.BytesOut
			httpQueries++
		}
	}
	singleMiss := missShare(li.cacheBefore, li.cacheMid)
	b.setLayer("http.single_handler_us", "us", 1e6*median(handler))
	b.setLayer("http.single_self_us", "us", 1e6*median(handler)-kernelSingleUs*singleMiss)
	b.setLayer("http.transport_us", "us", 1e6*median(transport))
	traced := seconds(selectDur(li.single.latencies, li.single.traced, true))
	b.setLayer("http.single_p99_ms", "ms", 1e3*quantile(traced, 0.99))
	b.setLayer("http.single_samples", "count", float64(len(traced)))
	b.setLayer("trace.overhead_single_pct", "%", 100*(median(traced)/median(seconds(selectDur(li.single.latencies, li.single.traced, false)))-1))

	var batchHandler time.Duration
	var batchQueries int64
	for _, cid := range b.requests(ix, "batch") {
		for _, hid := range ix.under(cid, "server.handler") {
			h := ix.get(hid)
			batchHandler += h.dur()
			httpBytes += h.BytesIn + h.BytesOut
			batchQueries += batchSize
		}
	}
	batchMiss := missShare(li.cacheMid, li.cacheAfter)
	b.setLayer("http.batch_self_us_per_query", "us", 1e6*batchHandler.Seconds()/float64(batchQueries)-kernelBatchUs*batchMiss)
	b.setLayer("http.bytes_per_query", "bytes", float64(httpBytes)/float64(httpQueries+batchQueries))
	hits := (li.cacheAfter.Hits - li.cacheBefore.Hits)
	lookups := hits + (li.cacheAfter.Misses - li.cacheBefore.Misses)
	b.setLayer("cache.hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
	b.setLayer("batch.distinct_ratio", "ratio", distinctRatio(in.batch))
	b.setLayer("trace.overhead_batch_pct", "%", 100*(meanDur(selectDur(li.batch.latencies, li.batch.traced, true))/meanDur(selectDur(li.batch.latencies, li.batch.traced, false))-1))

	var seedsHandler []float64
	for _, cid := range b.requests(ix, "seeds") {
		for _, hid := range ix.under(cid, "server.handler") {
			seedsHandler = append(seedsHandler, ix.get(hid).dur().Seconds())
		}
	}
	b.setLayer("seeds.handler_ms", "ms", 1e3*median(seedsHandler))

	// internal/cluster, from the coordinator and shard middleware spans.
	var coordSelf, shardUnion time.Duration
	var scatterBytes, fleetQueries int64
	for _, cid := range b.requests(ix, "fleet_batch") {
		for _, kid := range ix.under(cid, "cluster.coordinator") {
			coordSelf += ix.self(kid)
			shardUnion += time.Duration(ix.covered(kid))
			for _, sid := range ix.under(kid, "server.shard") {
				s := ix.get(sid)
				scatterBytes += s.BytesIn + s.BytesOut
			}
			fleetQueries += batchSize
		}
	}
	b.setLayer("fleet.coord_self_us_per_query", "us", 1e6*coordSelf.Seconds()/float64(max(fleetQueries, 1)))
	b.setLayer("fleet.shard_us_per_query", "us", 1e6*shardUnion.Seconds()/float64(max(fleetQueries, 1)))
	b.setLayer("fleet.scatter_bytes_per_query", "bytes", float64(scatterBytes)/float64(max(fleetQueries, 1)))
	var rounds, round0, gather, perAnswer, useful []float64
	for _, cid := range b.requests(ix, "fleet_seeds") {
		for _, kid := range ix.under(cid, "cluster.coordinator") {
			k := ix.get(kid)
			var shardReqs, candidates int
			var gathered int64
			firstRound := k.End
			for _, sid := range ix.under(kid, "server.shard") {
				s := ix.get(sid)
				shardReqs++
				gathered += s.BytesOut
				if s.Items > 0 {
					candidates += s.Items
					firstRound = min(firstRound, s.Start)
				}
			}
			rounds = append(rounds, float64(shardReqs)/shardCount)
			round0 = append(round0, time.Duration(firstRound-k.Start).Seconds())
			gather = append(gather, float64(gathered))
			perAnswer = append(perAnswer, float64(gathered)/float64(max(k.BytesOut, 1)))
			useful = append(useful, float64(seedsK)/max(float64(candidates)/shardCount, 1))
		}
	}
	b.setLayer("fleet.seeds_rounds", "count", median(rounds))
	b.setLayer("fleet.round0_ms", "ms", 1e3*median(round0))
	b.setLayer("fleet.seeds_gather_bytes", "bytes", median(gather))
	b.setLayer("fleet.gather_per_answer_byte", "ratio", median(perAnswer))
	b.setLayer("fleet.celf_useful_ratio", "ratio", median(useful))

	// Open loop at the workload's fixed offered rate, every request traced.
	ph = b.phase("open")
	or := li.c.openLoop(li.singleURL+"/v1/influence", in.openBodies, b.sp.openRate, openLoopConns, ph, 5_000_000)
	b.tr.end(ph, 0, 0, 0)
	b.attempted += or.attempted
	b.failed += or.failed
	lat := seconds(or.latencies)
	b.setLayer("open.p50_ms", "ms", 1e3*quantile(lat, 0.5))
	b.setLayer("open.p99_ms", "ms", 1e3*quantile(lat, 0.99))
	b.setLayer("open.late_ms", "ms", 1e3*quantile(seconds(or.late), 0.99))
	b.setLayer("open.samples", "count", float64(len(lat)))

	// Every phase's layer spans must explain at least 90% of its time.
	ix = indexTrace(b.tr.snapshot())
	minShare := 1.0
	unexplained := 0
	for _, id := range b.phases {
		share := ix.explained(id)
		minShare = min(minShare, share)
		if share < 0.9 {
			unexplained++
			fmt.Fprintf(os.Stderr, "layerbench: phase %s: layer spans explain only %.1f%% of its time\n", ix.get(id).Name, 100*share)
		}
	}
	b.setLayer("trace.unexplained_phases", "count", float64(unexplained))
	b.setLayer("trace.min_explained_ratio", "ratio", minShare)
	b.setLayer("trace.spans", "count", float64(len(ix.spans)))
	return nil
}

// requests returns the traced client spans of every round of phase name.
func (b *bench) requests(ix *traceIndex, name string) []int32 {
	var out []int32
	for _, id := range b.phases {
		if ix.get(id).Name == "phase:"+name {
			out = append(out, ix.under(id, "client.request")...)
		}
	}
	return out
}

// missShare is the share of cache lookups between two healthz readings that
// missed, i.e. that reached the kernel.
func missShare(a, b cacheStats) float64 {
	misses := b.Misses - a.Misses
	total := misses + b.Hits - a.Hits
	if total == 0 {
		return 1
	}
	return float64(misses) / float64(total)
}

// kernelWork returns the kernel work per query of stream under o's resolved
// kernel: membership entries walked (epoch) or words popcounted (bitpack),
// and the packed index's bytes. Single-vertex queries take the
// membership-length fast path under both kernels and walk nothing.
func kernelWork(o *core.Oracle, stream [][]graph.VertexID) (entries, words, packed float64) {
	bitpack := o.KernelResolved() == core.KernelBitpack
	setWords := float64((o.NumSets() + 63) / 64)
	for _, s := range stream {
		if len(s) < 2 {
			continue
		}
		if bitpack {
			words += float64(len(s)) * setWords
			continue
		}
		for _, v := range s {
			c, _ := o.Coverage([]graph.VertexID{v}) // membership length; v is in range
			entries += float64(c)
		}
	}
	n := float64(len(stream))
	if bitpack {
		packed = float64(core.PackedIndexBytes(o.NumVertices(), o.NumSets()))
	}
	return entries / n, words / n, packed
}

// distinctRatio is the mean share of distinct seed sets per batch request.
func distinctRatio(stream [][]graph.VertexID) float64 {
	var total float64
	batches := 0
	for i := 0; i+batchSize <= len(stream); i += batchSize {
		seen := make(map[string]bool)
		for _, s := range stream[i : i+batchSize] {
			seen[fmt.Sprint(server.CanonicalSeeds(seedInts(s)))] = true
		}
		total += float64(len(seen)) / batchSize
		batches++
	}
	return total / float64(max(batches, 1))
}

func meanDur(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds() / float64(max(len(ds), 1))
}

func sameSeeds(got []int, want []graph.VertexID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != int(want[i]) {
			return false
		}
	}
	return true
}

// rrCount replays the first count RR sets with a counting sampler over the
// builder's stream derivation, returning their traversal cost and whether
// they equal the sketch's first sets.
func rrCount(ig *graph.InfluenceGraph, model diffusion.Model, seed uint64, count int, o *core.Oracle) (diffusion.Cost, bool) {
	type sampler interface {
		Sample(targetSrc, edgeSrc rng.Source, cost *diffusion.Cost) []graph.VertexID
	}
	var s sampler = diffusion.NewRRSampler(ig)
	if model == diffusion.LT {
		s = diffusion.NewLTRRSampler(ig)
	}
	split := rng.SplitterFrom(rng.Xoshiro, rng.NewXoshiro(seed))
	var cost diffusion.Cost
	same := true
	for j := range count {
		src := split.Stream(uint64(j))
		set := s.Sample(src, src, &cost)
		got := slices.Clone(o.RRSet(j))
		slices.Sort(set)
		slices.Sort(got)
		same = same && slices.Equal(set, got)
	}
	return cost, same
}
