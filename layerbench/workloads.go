package main

import (
	"imdist/internal/diffusion"
	"imdist/internal/workload"
)

// spec is one benchmark workload: a generated graph, a sketch size and a
// query mix, plus the fixed amount of work each timed phase does. Phase sizes
// are per nominalSeconds of --seconds and scale linearly with it; they were
// sized on a 2-core machine so every timed phase runs for a second or more.
type spec struct {
	name string

	n, m  int             // Barabási–Albert size and attachment degree
	prob  workload.Model  // edge probabilities (IC) or in-weights (LT)
	model diffusion.Model // diffusion model of the RR sampler
	sets  int             // RR sets in the sketch
	mix   workload.Mix    // query mix of every stream
	maxS  int             // largest seed set in a query

	singles         int // closed-loop POST /v1/influence requests
	batches         int // closed-loop POST /v1/influence:batch requests of batchSize
	seedsCalls      int // POST /v1/seeds calls on the single server
	fleetSeedsCalls int // POST /v1/seeds calls through the coordinator

	openRate  float64 // offered rate of the open-loop phase (requests/s)
	openCount int     // requests the open-loop phase schedules

	countSets int // RR sets in the untimed counting pass and the parallel-efficiency pass
}

const (
	nominalSeconds = 10
	batchSize      = 64
	seedsK         = 50
	// warmSeedsK is k of the seeds warm-up calls: they run every greedy path
	// once but keep a full k=50 greedy run, the noisiest operation on a
	// shared machine, out of setup_s.
	warmSeedsK = 5
	shardCount = 2
)

// specs lists the workloads. Each one stresses a different layer and bypasses
// another, so an optimisation of one layer shows on one workload and shows no
// change on another (see README.md).
var specs = []spec{
	// Sparse IC RR sets, so auto picks the epoch kernel; uniform queries
	// never repeat, so the cache and bitpack are bypassed.
	{
		name: "ic100k-uniform",
		n:    100_000, m: 4, prob: workload.IWC, model: diffusion.IC, sets: 1 << 20,
		mix: workload.MixUniform, maxS: 8,
		singles: 25000, batches: 1200, seedsCalls: 9, fleetSeedsCalls: 9,
		openRate: 4000, openCount: 8000,
		countSets: 1 << 17,
	},
	// Dense IC RR sets, so auto picks bitpack; hot seed sets hit the LRU and
	// in-batch dedupe; bitpack greedy dominates seeds_ms; the epoch walk is
	// bypassed.
	{
		name: "ic4k-hotspot",
		n:    4_000, m: 8, prob: workload.UC01, model: diffusion.IC, sets: 1 << 18,
		mix: workload.MixHotspot, maxS: 8,
		singles: 12000, batches: 800, seedsCalls: 5, fleetSeedsCalls: 9,
		openRate: 2000, openCount: 4000,
		countSets: 1 << 15,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns count scaled from nominalSeconds to seconds, at least lo.
func scaled(count, seconds, lo int) int {
	return max(lo, count*seconds/nominalSeconds)
}
