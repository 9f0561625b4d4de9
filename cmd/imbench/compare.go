package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// kernelRunReport is one kernel's half of a -compare-kernels run: the wall
// time and throughput of replaying the workload single-query and batched,
// plus a greedy seed selection, all measured directly against the oracle
// (no HTTP, no caches).
type kernelRunReport struct {
	Kernel string `json:"kernel"`
	// PackMs is the one-time cost of building the packed bit matrix,
	// measured outside the query timings (0 for the epoch kernel, which has
	// no index to build).
	PackMs          float64 `json:"pack_ms,omitempty"`
	SingleSeconds   float64 `json:"single_seconds"`
	SingleQPS       float64 `json:"single_qps"`
	BatchSeconds    float64 `json:"batch_seconds"`
	BatchQPS        float64 `json:"batch_qps"`
	GreedySeconds   float64 `json:"greedy_seconds"`
	GreedySeedsUsed int     `json:"greedy_k"`
}

// kernelCompareReport is the JSON document -compare-kernels emits (the
// BENCH_kernel.json artifact of bench-smoke CI).
type kernelCompareReport struct {
	Sketch    string `json:"sketch"`
	Vertices  int    `json:"vertices"`
	RRSets    int    `json:"rr_sets"`
	Model     string `json:"model"`
	Mix       string `json:"mix"`
	Queries   int    `json:"queries"`
	MaxSeeds  int    `json:"max_seeds"`
	BatchSize int    `json:"batch_size"`
	Repeat    int    `json:"repeat"`
	Seed      uint64 `json:"seed"`
	// AutoKernel is what the auto policy picks for this sketch's shape;
	// PackedIndexBytes is the bit matrix's memory cost.
	AutoKernel       string `json:"auto_kernel"`
	PackedIndexBytes int64  `json:"packed_index_bytes"`
	// Identical reports the equivalence check: every influence value, batch
	// value and greedy seed set bitwise-equal across kernels. A false value
	// fails the run before the report is written, so a persisted report
	// always carries true — the field documents that the check ran.
	Identical bool               `json:"identical"`
	Epoch     kernelRunReport    `json:"epoch"`
	Bitpack   kernelRunReport    `json:"bitpack"`
	Speedups  map[string]float64 `json:"speedups"`
}

// runCompareKernels benchmarks the epoch and bitpack coverage kernels head to
// head on one sketch: the same reproducible workload is replayed through
// Oracle.Influence, Oracle.BatchInfluence and Oracle.GreedySeeds under each
// kernel, every answer is asserted bitwise-identical across the two, and the
// per-mode speedups land in the JSON report. Queries go straight to the
// oracle — no HTTP, no result caches — so the numbers isolate the kernels.
// A sketch whose packed index would exceed the bitpack kernel's memory cap
// fails the run with the oracle's refusal instead of allocating it.
func runCompareKernels(spec string, m workload.Mix, queries, maxSeeds, batch, repeat int, seed uint64, out string, stdout io.Writer) error {
	_, path, err := server.ParseSketchSpec(spec)
	if err != nil {
		return err
	}
	oracle, err := sketchio.ReadFile(path)
	if err != nil {
		return fmt.Errorf("loading sketch %s: %w", path, err)
	}
	seedSets, err := workload.SeedSets(m, oracle.NumVertices(), queries, maxSeeds, rng.NewXoshiro(seed))
	if err != nil {
		return err
	}
	const greedyK = 10

	rep := kernelCompareReport{
		Sketch:           path,
		Vertices:         oracle.NumVertices(),
		RRSets:           oracle.NumSets(),
		Model:            oracle.Model().String(),
		Mix:              m.String(),
		Queries:          queries,
		MaxSeeds:         maxSeeds,
		BatchSize:        batch,
		Repeat:           repeat,
		Seed:             seed,
		AutoKernel:       string(oracle.KernelResolved()),
		PackedIndexBytes: core.PackedIndexBytes(oracle.NumVertices(), oracle.NumSets()),
	}

	epoch, epochVals, epochSeeds, err := measureKernel(oracle, core.KernelEpoch, seedSets, batch, repeat, greedyK)
	if err != nil {
		return err
	}
	bitpack, bitVals, bitSeeds, err := measureKernel(oracle, core.KernelBitpack, seedSets, batch, repeat, greedyK)
	if err != nil {
		return err
	}
	for i := range epochVals {
		if math.Float64bits(epochVals[i]) != math.Float64bits(bitVals[i]) {
			return fmt.Errorf("kernel mismatch: query %d evaluates to %v under epoch but %v under bitpack", i%queries, epochVals[i], bitVals[i])
		}
	}
	if len(epochSeeds) != len(bitSeeds) {
		return fmt.Errorf("kernel mismatch: greedy returned %d seeds under epoch but %d under bitpack", len(epochSeeds), len(bitSeeds))
	}
	for i := range epochSeeds {
		if epochSeeds[i] != bitSeeds[i] {
			return fmt.Errorf("kernel mismatch: greedy seed %d is %d under epoch but %d under bitpack", i, epochSeeds[i], bitSeeds[i])
		}
	}
	rep.Identical = true
	rep.Epoch = epoch
	rep.Bitpack = bitpack
	rep.Speedups = map[string]float64{}
	if bitpack.SingleSeconds > 0 {
		rep.Speedups["single"] = epoch.SingleSeconds / bitpack.SingleSeconds
	}
	if bitpack.BatchSeconds > 0 {
		rep.Speedups["batch"] = epoch.BatchSeconds / bitpack.BatchSeconds
	}
	if bitpack.GreedySeconds > 0 {
		rep.Speedups["greedy"] = epoch.GreedySeconds / bitpack.GreedySeconds
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

// measureKernel replays the workload repeat times under one kernel and
// returns the timing report, the last pass's influence values (single pass
// concatenated with batch pass, for the bitwise equivalence check) and the
// greedy seed set.
func measureKernel(oracle *core.Oracle, k core.Kernel, seedSets [][]graph.VertexID, batch, repeat, greedyK int) (kernelRunReport, []float64, []graph.VertexID, error) {
	rep := kernelRunReport{Kernel: string(k), GreedySeedsUsed: greedyK}
	if err := oracle.SetKernel(k); err != nil {
		return rep, nil, nil, err
	}
	// Force the packed index build outside the query timings so PackMs
	// reports the one-time cost and the replay numbers are steady-state. The
	// warmup query needs at least two seeds: single-seed queries take the
	// membership fast path under every kernel and would never trigger the
	// build.
	if n := oracle.NumVertices(); n >= 2 {
		t0 := time.Now()
		if _, err := oracle.Influence([]graph.VertexID{0, 1}); err != nil {
			return rep, nil, nil, err
		}
		if k == core.KernelBitpack {
			rep.PackMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
	}

	vals := make([]float64, 0, 2*len(seedSets))
	t0 := time.Now()
	for r := 0; r < repeat; r++ {
		for i, seeds := range seedSets {
			v, err := oracle.Influence(seeds)
			if err != nil {
				return rep, nil, nil, fmt.Errorf("query %d: %w", i, err)
			}
			if r == repeat-1 {
				vals = append(vals, v)
			}
		}
	}
	rep.SingleSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	for r := 0; r < repeat; r++ {
		for start := 0; start < len(seedSets); start += batch {
			end := min(start+batch, len(seedSets))
			values, errs := oracle.BatchInfluence(seedSets[start:end], -1)
			for i, err := range errs {
				if err != nil {
					return rep, nil, nil, fmt.Errorf("batch query %d: %w", start+i, err)
				}
			}
			if r == repeat-1 {
				vals = append(vals, values...)
			}
		}
	}
	rep.BatchSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	greedy := oracle.GreedySeeds(greedyK)
	rep.GreedySeconds = time.Since(t0).Seconds()

	total := float64(repeat * len(seedSets))
	if rep.SingleSeconds > 0 {
		rep.SingleQPS = total / rep.SingleSeconds
	}
	if rep.BatchSeconds > 0 {
		rep.BatchQPS = total / rep.BatchSeconds
	}
	return rep, vals, greedy, nil
}
