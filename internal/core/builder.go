package core

import (
	"context"
	"fmt"
	"math"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/parallel"
	"imdist/internal/rng"
)

// SketchBuilder grows an RR-set sketch incrementally. Where
// NewOracleParallelSeeded commits to a fixed RR-set count up front,
// a builder appends batches of RR sets on demand (AppendBatch), reports the
// current accuracy of the sketch (ErrorBound) and can loop append→check until
// a target relative error or a hard cap is reached (BuildToTarget) — the
// stopping-rule idea behind adaptive RIS algorithms (OPIM, D-SSA), though
// without their certificate (see ErrorBound): the RR-set count is the single
// cost/accuracy dial, so stop paying as soon as the accuracy goal is met
// instead of guessing the count up front.
//
// Every RR set draws from its own rng stream derived from the builder's seed,
// and the stream index is the set's global position in the sketch. A sketch
// grown in any sequence of batches, at any worker count, is therefore
// byte-identical to the one-shot NewOracleParallelSeeded build of the same
// total — which also makes checkpoint/resume exact: a resumed builder
// (ResumeSketchBuilder) continues the very same sequence.
//
// Generated sets land in an RRStore. The default is the in-memory MemStore;
// a spill store (internal/sketchio) streams every batch to disk and can keep
// none of them resident, so the largest buildable sketch is capped by disk,
// not RAM — the generated bytes are identical either way.
//
// A SketchBuilder is not safe for concurrent use; each batch parallelizes
// internally across the builder's workers.
type SketchBuilder struct {
	ig      *graph.InfluenceGraph
	model   diffusion.Model
	seed    uint64
	workers int
	split   rng.Splitter

	samplers []diffusion.ReverseSampler
	store    RRStore

	// oracle caches the finalized view of the first oracleAt sets; appending
	// past oracleAt invalidates it.
	oracle   *Oracle
	oracleAt int
}

// NewSketchBuilder returns an empty builder over ig for the given diffusion
// model, storing its RR sets in memory. workers is the goroutine count its
// batches and oracles run on (0 and 1 serial, negative for all CPUs); it
// changes speed, never the generated sets. seed pins the whole RR-set
// sequence: a builder grown to R sets produces the same sketch as
// NewOracleParallelSeeded(ig, model, R, w, seed), itself a one-batch build.
func NewSketchBuilder(ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64) (*SketchBuilder, error) {
	return ResumeSketchBuilder(ig, model, workers, seed, nil)
}

// ResumeSketchBuilder reconstructs a builder that has already generated
// rrSets (a checkpoint written by internal/sketchio); generation continues at
// stream index len(rrSets), so the resumed sequence is indistinguishable from
// an uninterrupted build. It validates every checkpointed vertex id against
// [0, n) — checkpoints may come from untrusted storage — and takes ownership
// of rrSets.
func ResumeSketchBuilder(ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64, rrSets [][]graph.VertexID) (*SketchBuilder, error) {
	if ig != nil {
		n := ig.NumVertices()
		for i, set := range rrSets {
			for _, v := range set {
				if v < 0 || int(v) >= n {
					return nil, fmt.Errorf("core: resumed RR set %d contains vertex %d outside [0, %d)", i, v, n)
				}
			}
		}
	}
	return NewSketchBuilderFromStore(ig, model, workers, seed, NewMemStore(rrSets))
}

// NewSketchBuilderFromStore reconstructs a builder over the RR sets store
// already holds — the resume path for stores that validated their contents
// while decoding them (the spill store, checkpoint readers), which is why no
// second validation pass runs here. Generation continues at stream index
// store.NumSets(); every batch the builder appends goes back into the same
// store. The builder does not take over closing the store.
func NewSketchBuilderFromStore(ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64, store RRStore) (*SketchBuilder, error) {
	if store == nil {
		store = NewMemStore(nil)
	}
	// The same stream family as NewOracleParallelSeeded: base seed drawn once
	// from rng.NewXoshiro(seed), then one stream per global RR-set index.
	return newSketchBuilder(ig, model, workers, seed, rng.SplitterFrom(rng.Xoshiro, rng.NewXoshiro(seed)), store)
}

// newSketchBuilder returns a builder that draws RR set i from split.Stream(i)
// into store and records seed as the sketch's provenance. Every constructor,
// NewOracleParallel included, ends here, so AppendBatch is the one loop that
// draws RR sets.
func newSketchBuilder(ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64, split rng.Splitter, store RRStore) (*SketchBuilder, error) {
	if ig == nil || ig.NumVertices() == 0 {
		return nil, ErrEmptyGraph
	}
	if model == diffusion.LT {
		if err := diffusion.ValidateLTWeights(ig); err != nil {
			return nil, err
		}
	}
	return &SketchBuilder{
		ig:      ig,
		model:   model,
		seed:    seed,
		workers: workers,
		split:   split,
		store:   store,
	}, nil
}

// NumSets returns the number of RR sets generated so far.
func (b *SketchBuilder) NumSets() int { return b.store.NumSets() }

// NumVertices returns the number of vertices of the underlying graph.
func (b *SketchBuilder) NumVertices() int { return b.ig.NumVertices() }

// Model returns the diffusion model the builder samples under.
func (b *SketchBuilder) Model() diffusion.Model { return b.model }

// Seed returns the master seed pinning the builder's RR-set sequence.
func (b *SketchBuilder) Seed() uint64 { return b.seed }

// Graph returns the influence graph the builder samples from (checkpoint
// writers fingerprint it so a resume against a different graph is caught).
func (b *SketchBuilder) Graph() *graph.InfluenceGraph { return b.ig }

// Store returns the RR-set store backing the builder (read-only use:
// ForEach streams its sets).
func (b *SketchBuilder) Store() RRStore { return b.store }

// StoreStats reports the builder's current storage footprint (resident and
// spilled bytes).
func (b *SketchBuilder) StoreStats() StoreStats { return b.store.Stats() }

// AppendBatch generates m more RR sets, at stream indices
// [NumSets(), NumSets()+m), across the builder's workers, and hands them to
// the store (which persists them first when it is disk-backed). The resulting
// prefix depends only on (seed, total count) — never on the batch schedule or
// worker count.
func (b *SketchBuilder) AppendBatch(m int) error {
	if m < 1 {
		return fmt.Errorf("core: AppendBatch needs a positive batch, got %d", m)
	}
	w := parallel.Resolve(b.workers, m)
	for len(b.samplers) < w {
		b.samplers = append(b.samplers, diffusion.NewReverseSampler(b.ig, b.model))
	}
	start := b.store.NumSets()
	batch := make([][]graph.VertexID, m)
	parallel.For(w, m, func(worker, j int) {
		s := b.split.Stream(uint64(start + j))
		batch[j] = b.samplers[worker].Sample(s, s, nil)
	})
	return b.store.Append(batch)
}

// Oracle finalizes the current sketch into a queryable Oracle carrying the
// builder's model and seed. The member index is built by streaming over the
// store on the builder's workers, so even a disk-backed build never
// materializes every set on the heap, and the index is the same at every
// worker count. The oracle covers the current prefix and holds only its
// member index: the builder can keep appending afterwards without disturbing
// it, a later Oracle call returns a fresh, larger one, and the store may be
// closed as soon as Oracle returns.
func (b *SketchBuilder) Oracle() (*Oracle, error) {
	if b.oracle == nil || b.oracleAt != b.store.NumSets() {
		o, err := newOracleFromStore(b.ig.NumVertices(), b.model, b.seed, b.store, b.workers)
		if err != nil {
			return nil, err
		}
		b.oracle = o
		b.oracleAt = o.NumSets()
	}
	return b.oracle, nil
}

// DefaultBoundK is the seed-set size ErrorBound and BuildToTarget target when
// the caller does not name one.
const DefaultBoundK = 10

// DefaultBoundDelta is the failure probability backing ErrorBound when the
// caller does not name one (99% confidence).
const DefaultBoundDelta = 0.01

// ErrorBound estimates the current relative error of the sketch for seed sets
// of size k at confidence 1-delta: the Hoeffding half-width of an influence
// estimate from R RR sets, n·sqrt(ln(2/δ)/2R), divided by the sketch's own
// greedy top-k influence as a stand-in for the optimum. It is the stopping
// quantity BuildToTarget drives to a target: it shrinks as 1/sqrt(R), so
// halving the bound costs 4× the sets. An empty sketch reports +Inf. k < 1
// and out-of-range delta select DefaultBoundK and DefaultBoundDelta.
//
// It is a same-pool Hoeffding stopping heuristic, not a (1−1/e−ε)
// approximation certificate: the greedy influence that stands in for the
// optimum is measured on the same RR sets the bound is about, so the result
// carries no probability-1−δ guarantee on the selected seeds' quality.
func (b *SketchBuilder) ErrorBound(k int, delta float64) float64 {
	r := b.store.NumSets()
	if r == 0 {
		return math.Inf(1)
	}
	if k < 1 {
		k = DefaultBoundK
	}
	if delta <= 0 || delta >= 1 {
		delta = DefaultBoundDelta
	}
	o, err := b.Oracle()
	if err != nil {
		return math.Inf(1)
	}
	_, covered := o.GreedyCoverage(k)
	lb := o.CoverageInfluence(covered)
	if lb < 1 {
		lb = 1
	}
	n := float64(b.ig.NumVertices())
	return n * math.Sqrt(math.Log(2/delta)/(2*float64(r))) / lb
}

// Defaults for BuildTarget zero values.
const (
	// DefaultMinSets is the smallest sketch BuildToTarget checks a bound on;
	// below it the greedy lower bound is too noisy to stop early.
	DefaultMinSets = 1 << 10
	// DefaultMaxBatch caps one append round, bounding both the work between
	// two bound checks and the gap between two progress/checkpoint callbacks.
	DefaultMaxBatch = 1 << 20
)

// BuildTarget configures BuildToTarget.
type BuildTarget struct {
	// Eps is the target relative error (see ErrorBound). Eps <= 0 disables
	// the accuracy stop: the build runs straight to MaxSets (a fixed-size
	// build with progress and checkpointing).
	Eps float64
	// Delta is the bound's failure probability (default DefaultBoundDelta).
	Delta float64
	// K is the seed-set size the bound targets (default DefaultBoundK).
	K int
	// MaxSets caps the sketch size; the build stops there even if the bound
	// was not reached. Required.
	MaxSets int
	// MinSets is the smallest sketch a bound is checked on (default
	// DefaultMinSets, clamped to MaxSets).
	MinSets int
	// MaxBatch caps the sets appended per round (default DefaultMaxBatch).
	// The in-flight batch lives on the heap until the store persists it, so
	// a spill build, whose store keeps no sets, caps it lower
	// (sketchio.BuildSpill).
	MaxBatch int
	// Progress, when non-nil, runs after every round with the build's
	// current state — the hook checkpoint writers and job managers attach.
	// A non-nil error aborts the build and is returned verbatim.
	Progress func(BuildProgress) error
}

// BuildProgress is the per-round state handed to BuildTarget.Progress.
type BuildProgress struct {
	// Sets is the current sketch size; Appended is how many of them the round
	// just finished added (0 on the initial report of a resumed build whose
	// target was already met).
	Sets     int
	Appended int
	// Bound is the current ErrorBound (+Inf before MinSets or when Eps <= 0).
	Bound float64
	// Fraction estimates overall completion in [0, 1] from the bound's
	// 1/sqrt(R) shape and the MaxSets cap.
	Fraction float64
	// SpillBytes is the store's durable on-disk footprint (0 for in-memory
	// builds); MemBytes approximates the decoded bytes resident on the heap.
	SpillBytes int64
	MemBytes   int64
}

// BuildResult summarizes a finished BuildToTarget run.
type BuildResult struct {
	// Sets is the final sketch size.
	Sets int
	// Bound is the final ErrorBound (+Inf when never computed, i.e. Eps <= 0).
	Bound float64
	// Converged reports whether the bound met Eps (false when the MaxSets
	// cap stopped the build first, or Eps <= 0).
	Converged bool
}

// BuildToTarget grows the sketch in geometrically increasing rounds until
// ErrorBound(t.K, t.Delta) <= t.Eps or the sketch holds t.MaxSets sets,
// whichever comes first. Cancelling ctx stops the build between rounds with
// ctx's error; the builder remains valid (and checkpointable) either way.
// The generated sets depend only on (seed, final count), never on the round
// schedule, so an interrupted-and-resumed target build still lands on a
// byte-identical sketch for the same final count.
func (b *SketchBuilder) BuildToTarget(ctx context.Context, t BuildTarget) (BuildResult, error) {
	if t.MaxSets < 1 {
		return BuildResult{Sets: b.NumSets()}, fmt.Errorf("core: BuildToTarget needs MaxSets >= 1, got %d", t.MaxSets)
	}
	if t.Delta <= 0 || t.Delta >= 1 {
		t.Delta = DefaultBoundDelta
	}
	if t.K < 1 {
		t.K = DefaultBoundK
	}
	minSets := t.MinSets
	if minSets < 1 {
		minSets = DefaultMinSets
	}
	if minSets > t.MaxSets {
		minSets = t.MaxSets
	}
	maxBatch := t.MaxBatch
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	appended := 0
	for {
		if err := ctx.Err(); err != nil {
			return BuildResult{Sets: b.NumSets(), Bound: math.Inf(1)}, err
		}
		cur := b.NumSets()
		bound := math.Inf(1)
		if t.Eps > 0 && cur >= minSets {
			bound = b.ErrorBound(t.K, t.Delta)
		}
		res := BuildResult{
			Sets:      cur,
			Bound:     bound,
			Converged: t.Eps > 0 && bound <= t.Eps,
		}
		if t.Progress != nil {
			stats := b.store.Stats()
			if err := t.Progress(BuildProgress{
				Sets:       cur,
				Appended:   appended,
				Bound:      bound,
				Fraction:   buildFraction(cur, t.MaxSets, bound, t.Eps),
				SpillBytes: stats.SpillBytes,
				MemBytes:   stats.MemBytes,
			}); err != nil {
				return res, err
			}
		}
		if res.Converged || cur >= t.MaxSets {
			return res, nil
		}
		next := cur * 2
		if next < minSets {
			next = minSets
		}
		if next > cur+maxBatch {
			next = cur + maxBatch
		}
		if next > t.MaxSets {
			next = t.MaxSets
		}
		if err := b.AppendBatch(next - cur); err != nil {
			return res, err
		}
		appended = next - cur
	}
}

// buildFraction estimates build completion: the bound shrinks as 1/sqrt(R),
// so meeting eps needs R·(bound/eps)² sets — unless the MaxSets cap arrives
// first, whichever terminal condition is nearer.
func buildFraction(sets, maxSets int, bound, eps float64) float64 {
	frac := float64(sets) / float64(maxSets)
	if eps > 0 && bound > 0 && !math.IsInf(bound, 1) {
		byBound := (eps / bound) * (eps / bound)
		if byBound > frac {
			frac = byBound
		}
	}
	return math.Min(frac, 1)
}
