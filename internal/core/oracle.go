// Package core implements the paper's experimental methodology — its primary
// contribution. It runs an algorithmic approach (Oneshot, Snapshot or RIS)
// many times for a sweep of sample numbers, records the resulting seed sets
// and their influence spreads, and derives the quantities the paper reports:
// the Shannon entropy of the seed-set distribution (Section 5.1), the
// influence distribution and the least sample number needed for near-optimal
// solutions (Section 5.2), the comparable number and size ratios between
// approaches (Section 5.2.3), and the per-sample and identical-accuracy
// traversal costs (Sections 5.3 and 6).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/parallel"
	"imdist/internal/rng"
	"imdist/internal/stats"
)

// Oracle is the shared influence-spread estimator of Section 5.2: a single
// collection of RR sets generated once per influence graph and reused across
// every run of every algorithm, so that identical seed sets always receive
// identical influence estimates. With R RR sets the 99% confidence interval
// of an estimate is n·F(S) ± 1.29·n/√R.
//
// An oracle holds its RR sets only as a vertex→RR-set member index, whatever
// it was built or loaded from: it keeps no reference to a builder's store, so
// the sets it was built from can be freed, closed or removed once it exists.
//
// The query methods (Influence, MarginalCoverage, GreedySeeds,
// TopSingleVertices, RankPage) are safe for concurrent use: per-call scratch
// state lives in pooled buffers or, for covered states, in an idle list that
// hands each state to one call at a time, and the derived indexes (the
// packed matrix, the ranking) are built once on first use.
type Oracle struct {
	n       int
	numSets int
	// model and seed record how the RR sets were generated; they travel with
	// the oracle when it is serialized (internal/sketchio).
	model diffusion.Model
	seed  uint64
	// offsets and entries are the vertex→RR-set member index in CSR form
	// (compressed sparse rows): vertex v's RR-set ids are
	// entries[offsets[v]:offsets[v+1]], strictly ascending. It is all the
	// oracle holds of its RR sets: every query reads only this index (and the
	// packed matrix derived from it), and a sketch loaded by
	// sketchio.OpenMapped aliases both arrays into the file mapping.
	offsets []uint64
	entries []int32
	// sets is the member index transposed back into RR sets, built by the
	// first RRSet call.
	sets     [][]graph.VertexID
	setsOnce sync.Once
	// shard records this oracle's place in a partitioned fleet (zero value
	// for whole sketches); it travels with the oracle when serialized.
	shard ShardLineage

	// influencePool holds *influenceScratch, batchPool holds *batchScratch
	// (BatchCoverage).
	influencePool sync.Pool
	batchPool     sync.Pool

	// covers keeps covered states between MarginalCoverage and GreedySeeds
	// calls (marginal.go).
	covers coverCache

	// kernels holds the coverage-kernel selection (epoch vs bitpack) and the
	// lazily built packed index; see kernel.go.
	kernels kernelState

	// rank is every vertex in RankKey order, sorted on first use (rank.go).
	rank     []graph.VertexID
	rankOnce sync.Once
}

// ErrEmptyGraph reports an oracle request on an empty graph.
var ErrEmptyGraph = errors.New("core: empty influence graph")

// ErrShardLineage reports an invalid shard lineage (internally inconsistent,
// or inconsistent with the oracle it is attached to).
var ErrShardLineage = errors.New("core: invalid shard lineage")

// ShardLineage identifies an oracle's place in a partitioned sketch fleet:
// this oracle holds shard Index of Count contiguous RR-set partitions of an
// original sketch carrying TotalSets RR sets in all. A coordinator
// (internal/cluster) uses the lineage to reject mis-assembled fleets —
// shards from different splits, duplicated indexes, or a missing partition —
// and to merge per-shard integer coverage counts into answers that are
// byte-identical to the unsplit sketch's: influence is n·(Σ per-shard
// hits)/TotalSets, so every shard must agree on TotalSets.
//
// The zero value (Count == 0) means "not a shard": a whole, unsplit sketch.
type ShardLineage struct {
	Index     int
	Count     int
	TotalSets int
}

// Sharded reports whether the lineage describes a partition (rather than a
// whole sketch).
func (l ShardLineage) Sharded() bool { return l.Count > 0 }

// validate checks the lineage's internal consistency against the number of
// RR sets the shard actually holds.
func (l ShardLineage) validate(numSets int) error {
	if !l.Sharded() {
		if l.Index != 0 || l.TotalSets != 0 {
			return fmt.Errorf("%w: zero Count with nonzero Index/TotalSets", ErrShardLineage)
		}
		return nil
	}
	if l.Index < 0 || l.Index >= l.Count {
		return fmt.Errorf("%w: shard index %d outside [0, %d)", ErrShardLineage, l.Index, l.Count)
	}
	if l.TotalSets < numSets {
		return fmt.Errorf("%w: total sets %d below this shard's %d", ErrShardLineage, l.TotalSets, numSets)
	}
	if l.Count > l.TotalSets {
		return fmt.Errorf("%w: %d shards cannot partition %d RR sets", ErrShardLineage, l.Count, l.TotalSets)
	}
	return nil
}

// ErrSeedOutOfRange reports a caller-supplied seed vertex outside [0, n).
var ErrSeedOutOfRange = errors.New("core: seed vertex out of range")

// NewOracle builds an oracle from numSets RR sets of ig under the Independent
// Cascade model using src for randomness. The paper uses 10^7 RR sets; the
// experiment presets scale this down (see internal/experiment).
func NewOracle(ig *graph.InfluenceGraph, numSets int, src rng.Source) (*Oracle, error) {
	return NewOracleForModel(ig, diffusion.IC, numSets, src)
}

// NewOracleForModel builds an oracle under the given diffusion model (IC as
// in the paper, or LT as an extension), generating the RR sets serially.
func NewOracleForModel(ig *graph.InfluenceGraph, model diffusion.Model, numSets int, src rng.Source) (*Oracle, error) {
	return NewOracleParallel(ig, model, numSets, 1, src)
}

// rrSampler abstracts RR-set generation over diffusion models.
type rrSampler interface {
	Sample(targetSrc, edgeSrc rng.Source, cost *diffusion.Cost) []graph.VertexID
}

func newRRSampler(ig *graph.InfluenceGraph, model diffusion.Model) rrSampler {
	if model == diffusion.LT {
		return diffusion.NewLTRRSampler(ig)
	}
	return diffusion.NewRRSampler(ig)
}

// NewOracleParallel builds an oracle under the given diffusion model,
// generating its RR sets on a pool of workers goroutines (0 and 1 generate
// on the calling goroutine; negative values use all CPUs). Every RR set
// draws from its own rng stream derived from a base seed taken once from
// src — for serial and parallel builds alike — so the oracle is
// byte-identical across runs and across every worker count, including the
// serial ones.
func NewOracleParallel(ig *graph.InfluenceGraph, model diffusion.Model, numSets, workers int, src rng.Source) (*Oracle, error) {
	if ig == nil || ig.NumVertices() == 0 {
		return nil, ErrEmptyGraph
	}
	if numSets < 1 {
		return nil, fmt.Errorf("core: oracle needs at least one RR set, got %d", numSets)
	}
	if model == diffusion.LT {
		if err := diffusion.ValidateLTWeights(ig); err != nil {
			return nil, err
		}
	}
	rrSets := make([][]graph.VertexID, numSets)
	// Per-sample derived streams (target and edge coins share one), as in
	// the RIS Build: the oracle is independent of the worker count — serial
	// included — and of scheduling.
	split := rng.SplitterFrom(rng.Xoshiro, src)
	w := parallel.Resolve(workers, numSets)
	samplers := make([]rrSampler, w)
	for i := range samplers {
		samplers[i] = newRRSampler(ig, model)
	}
	parallel.For(w, numSets, func(worker, i int) {
		s := split.Stream(uint64(i))
		rrSets[i] = samplers[worker].Sample(s, s, nil)
	})
	return newOracleFromStore(ig.NumVertices(), model, 0, NewMemStore(rrSets), workers)
}

// NewOracleParallelSeeded is NewOracleParallel driven by an explicit master
// seed (the randomness is rng.NewXoshiro(seed)); the seed is recorded on the
// oracle so serialized sketches carry their provenance.
func NewOracleParallelSeeded(ig *graph.InfluenceGraph, model diffusion.Model, numSets, workers int, seed uint64) (*Oracle, error) {
	o, err := NewOracleParallel(ig, model, numSets, workers, rng.NewXoshiro(seed))
	if err != nil {
		return nil, err
	}
	o.seed = seed
	return o, nil
}

// NewOracleFromRRSets reassembles an oracle from previously generated RR sets
// (the v1 deserialization path of internal/sketchio). It validates every
// vertex id against [0, n), and rejects a set that lists a vertex twice, so
// that a corrupted or hostile sketch cannot induce out-of-bounds indexing or
// miscounted coverage; it takes ownership of rrSets. Like every load path it
// builds and checks the member index on all CPUs.
func NewOracleFromRRSets(n int, model diffusion.Model, seed uint64, rrSets [][]graph.VertexID) (*Oracle, error) {
	return newOracleFromStore(n, model, seed, NewMemStore(rrSets), -1)
}

// newOracleFromStore finalizes the RR sets held by store into a queryable
// oracle: the member index is built by streaming over the store on workers
// goroutines (NewOracleParallel semantics), so a disk-backed store never has
// to materialize every set on the heap at once. The oracle covers the
// store's current sets and keeps no reference to the store, so appending to
// it afterwards (a SketchBuilder growing past an ErrorBound check), closing
// it or dropping it leaves the oracle untouched. Every vertex id is
// validated against [0, n) during the streaming pass — stores may be
// rehydrated from untrusted files.
func newOracleFromStore(n int, model diffusion.Model, seed uint64, store RRStore, workers int) (*Oracle, error) {
	if n < 1 {
		return nil, ErrEmptyGraph
	}
	numSets := store.NumSets()
	offsets, entries, err := transposeStore(n, numSets, store, workers)
	if err != nil {
		return nil, err
	}
	return newOracleFromMemberIndex(n, model, seed, numSets, offsets, entries, workers)
}

// NewOracleFromMemberIndex wraps a CSR member index — vertex v's RR-set ids
// are entries[offsets[v]:offsets[v+1]] — as an oracle over numSets RR sets.
// Every construction path ends here, so the index is validated here: n+1
// offsets from 0 that never decrease and end at len(entries), and per-vertex
// ids strictly ascending in [0, numSets). The check runs on all CPUs (the
// load and split paths call this directly). The oracle keeps both slices
// without copying (sketchio aliases them into a file mapping), and they must
// not be modified afterwards.
func NewOracleFromMemberIndex(n int, model diffusion.Model, seed uint64, numSets int, offsets []uint64, entries []int32) (*Oracle, error) {
	return newOracleFromMemberIndex(n, model, seed, numSets, offsets, entries, -1)
}

// newOracleFromMemberIndex is NewOracleFromMemberIndex checking the index on
// workers goroutines; the builder passes its own worker count.
func newOracleFromMemberIndex(n int, model diffusion.Model, seed uint64, numSets int, offsets []uint64, entries []int32, workers int) (*Oracle, error) {
	if n < 1 {
		return nil, ErrEmptyGraph
	}
	if numSets < 1 || numSets > math.MaxInt32 {
		return nil, fmt.Errorf("core: RR-set count %d outside [1, 2^31)", numSets)
	}
	if err := checkMemberIndex(n, numSets, offsets, entries, workers); err != nil {
		return nil, err
	}
	o := &Oracle{
		n:       n,
		numSets: numSets,
		model:   model,
		seed:    seed,
		offsets: offsets,
		entries: entries,
	}
	o.kernels.bitpack.Store(decideAutoKernel(n, numSets, o.PayloadBytes()) == KernelBitpack)
	return o, nil
}

// Every pass over a member index — transpose, check and pack — runs on
// worker goroutines and writes or reports exactly what one worker would: the
// worker count changes speed, never a byte or an error message.

// chunksPerWorker is how many vertex chunks each worker of a per-vertex pass
// gets on average. Chunks are handed out dynamically (parallel.For), so a
// worker slowed by a concurrent task, such as the checksum a load computes
// beside the check, leaves its remaining chunks to the others.
const chunksPerWorker = 4

// vertexChunks splits the vertices of a CSR member index whose offsets are
// known to be non-decreasing into contiguous chunks of about equal work for a
// pass on workers goroutines (Resolve semantics: negative means all CPUs).
// Work counts one unit per entry and per vertex, so the hubs of a scale-free
// graph, which own most entries, spread over the workers. It returns the
// worker count to run the pass on and the chunk bounds: chunk c is
// [bounds[c], bounds[c+1]), possibly empty.
func vertexChunks(offsets []uint64, workers int) (w int, bounds []int) {
	n := len(offsets) - 1
	w = parallel.Resolve(workers, n)
	parts := w * chunksPerWorker
	total := offsets[n] + uint64(n)
	bounds = make([]int, parts+1)
	for c := 1; c < parts; c++ {
		target := total * uint64(c) / uint64(parts)
		bounds[c] = sort.Search(n, func(v int) bool { return offsets[v]+uint64(v) >= target })
	}
	bounds[parts] = n
	return w, bounds
}

// transposeStore builds the CSR member index of the first numSets sets of
// store on workers goroutines. Each worker owns one contiguous range of set
// indices and an n-entry cursor array: a counting pass (which also validates
// every vertex id against [0, n)) counts each vertex in the range, a prefix
// pass lays vertex v's list out as range 0's ids, then range 1's, and so on,
// turning the counts into fill cursors, and a fill pass writes the set ids.
// Lists therefore fill in RR-set order, strictly ascending, so two oracles
// over identical RR sets answer every query identically regardless of how —
// from which store, on how many workers — they were constructed. A bad
// vertex id is reported for the lowest set index holding one.
func transposeStore(n, numSets int, store RRStore, workers int) ([]uint64, []int32, error) {
	w := parallel.Resolve(workers, numSets)
	// The cursor arrays, 8n bytes each, stay within the size of the entries
	// array they fill.
	if st := store.Stats(); st.Sets > 0 {
		w = min(w, max(1, int((st.PayloadBytes-4*int64(st.Sets))/(8*int64(n)))))
	}
	cursors := make([][]uint64, w)
	errs := make([]error, w)
	sets := func(r int) (lo, hi int) { return r * numSets / w, (r + 1) * numSets / w }
	parallel.For(w, w, func(_, r int) {
		count := make([]uint64, n)
		cursors[r] = count
		lo, hi := sets(r)
		errs[r] = store.ForEach(lo, hi, func(i int, set []graph.VertexID) error {
			for _, v := range set {
				if v < 0 || int(v) >= n {
					return fmt.Errorf("core: RR set %d contains vertex %d outside [0, %d)", i, v, n)
				}
				count[v]++
			}
			return nil
		})
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	offsets := make([]uint64, n+1)
	var next uint64
	for v := range n {
		offsets[v] = next
		for _, c := range cursors {
			c[v], next = next, next+c[v]
		}
	}
	offsets[n] = next
	entries := make([]int32, next)
	parallel.For(w, w, func(_, r int) {
		cursor := cursors[r]
		lo, hi := sets(r)
		errs[r] = store.ForEach(lo, hi, func(i int, set []graph.VertexID) error {
			for _, v := range set {
				entries[cursor[v]] = int32(i)
				cursor[v]++
			}
			return nil
		})
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	return offsets, entries, nil
}

// firstError returns the first non-nil error of per-range results, the one a
// serial walk over the ranges in order would have stopped at.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkMemberIndex verifies a CSR member index on workers goroutines.
// Strictly ascending lists also reject an RR set that lists a vertex twice,
// which every coverage path assumes cannot happen: the single-vertex count is
// a list length, and the batch engine counts a range of a list. The offsets
// are checked first, in one O(n) pass; the lists of the vertices before the
// first bad span are then checked in entry-balanced chunks. The error is the
// one a serial walk over the vertices would meet first: the lowest failing
// vertex's, a list fault before a later span fault.
func checkMemberIndex(n, numSets int, offsets []uint64, entries []int32, workers int) error {
	if len(offsets) != n+1 || offsets[0] != 0 || offsets[n] != uint64(len(entries)) {
		return fmt.Errorf("core: member index offsets must be %d values from 0 to %d", n+1, len(entries))
	}
	spanned := n
	var spanErr error
	for v := range n {
		if lo, hi := offsets[v], offsets[v+1]; hi < lo || hi > uint64(len(entries)) {
			spanned = v
			spanErr = fmt.Errorf("core: member list of vertex %d spans [%d, %d) outside [%d, %d]", v, lo, hi, lo, len(entries))
			break
		}
	}
	w, bounds := vertexChunks(offsets[:spanned+1], workers)
	errs := make([]error, len(bounds)-1)
	parallel.For(w, len(errs), func(_, c int) {
		for v := bounds[c]; v < bounds[c+1]; v++ {
			if list := entries[offsets[v]:offsets[v+1]]; !ascendingBelow(list, numSets) {
				errs[c] = listError(v, list, numSets)
				return
			}
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}
	return spanErr
}

// ascendingBelow reports whether list is strictly ascending within
// [0, numSets). Once the order holds, the first and last ids bound every
// other, so only they need the range check.
func ascendingBelow(list []int32, numSets int) bool {
	if len(list) == 0 {
		return true
	}
	prev := list[0]
	for _, id := range list[1:] {
		if id <= prev {
			return false
		}
		prev = id
	}
	return list[0] >= 0 && int(prev) < numSets
}

// listError describes the first fault of vertex v's list, walking it as a
// serial check would; it runs only on a list ascendingBelow rejected.
func listError(v int, list []int32, numSets int) error {
	prev := int32(-1)
	for _, id := range list {
		if id <= prev || int(id) >= numSets {
			if id == prev {
				return fmt.Errorf("core: RR set %d lists vertex %d twice", id, v)
			}
			return fmt.Errorf("core: member list of vertex %d has RR set %d after %d, want strictly ascending ids in [0, %d)", v, id, prev, numSets)
		}
		prev = id
	}
	return nil
}

// members returns the ascending ids of the RR sets containing v.
func (o *Oracle) members(v graph.VertexID) []int32 {
	return o.entries[o.offsets[v]:o.offsets[v+1]]
}

// MemberIndex returns the oracle's member index in CSR form: vertex v's
// RR-set ids are entries[offsets[v]:offsets[v+1]], strictly ascending. Both
// slices belong to the oracle (and may alias a file mapping, under the same
// lifetime rules as queries); callers must not modify them.
func (o *Oracle) MemberIndex() (offsets []uint64, entries []int32) { return o.offsets, o.entries }

// NumSets returns the number of RR sets backing the oracle.
func (o *Oracle) NumSets() int { return o.numSets }

// NumVertices returns the number of vertices of the underlying graph.
func (o *Oracle) NumVertices() int { return o.n }

// Model returns the diffusion model the RR sets were generated under.
func (o *Oracle) Model() diffusion.Model { return o.model }

// BuildSeed returns the master seed the oracle was built from, when known
// (NewOracleParallelSeeded or a loaded sketch); otherwise 0.
func (o *Oracle) BuildSeed() uint64 { return o.seed }

// RRSet returns the vertices of RR set i in ascending order. The oracle
// holds only its member index, so the first call transposes the whole index
// back into RR sets on the heap, and later calls read that copy. The returned
// slice is owned by the oracle and must not be modified.
func (o *Oracle) RRSet(i int) []graph.VertexID {
	o.setsOnce.Do(func() { o.sets = o.transposeIndex() })
	return o.sets[i]
}

// transposeIndex rebuilds the RR sets from the member index.
func (o *Oracle) transposeIndex() [][]graph.VertexID {
	bounds := make([]int, o.numSets+1)
	for _, id := range o.entries {
		bounds[id+1]++
	}
	for i := range o.numSets {
		bounds[i+1] += bounds[i]
	}
	flat := make([]graph.VertexID, len(o.entries))
	next := slices.Clone(bounds[:o.numSets])
	for v := range o.n {
		for _, id := range o.members(graph.VertexID(v)) {
			flat[next[id]] = graph.VertexID(v)
			next[id]++
		}
	}
	sets := make([][]graph.VertexID, o.numSets)
	for i := range sets {
		sets[i] = flat[bounds[i]:bounds[i+1]:bounds[i+1]]
	}
	return sets
}

// PayloadBytes returns the exact encoded size in bytes of the oracle's RR
// sets in the shared record format (4-byte count plus 4 bytes per vertex,
// per set): 4 bytes per RR set plus 4 per member-index entry. The auto kernel
// policy weighs the packed index against it.
func (o *Oracle) PayloadBytes() int64 { return 4*int64(o.numSets) + 4*int64(len(o.entries)) }

// ShardLineage returns the oracle's place in a partitioned fleet; the zero
// value (Count 0) means the oracle is a whole, unsplit sketch.
func (o *Oracle) ShardLineage() ShardLineage { return o.shard }

// SetShardLineage records the oracle's shard lineage (sketchio sets it when
// loading a shard file written by SplitSketch). The lineage must be
// internally consistent and cover at least this oracle's RR sets; the zero
// value clears it.
func (o *Oracle) SetShardLineage(l ShardLineage) error {
	if err := l.validate(o.numSets); err != nil {
		return err
	}
	o.shard = l
	return nil
}

// ValidateSeeds reports whether every seed lies in [0, n).
func (o *Oracle) ValidateSeeds(seeds []graph.VertexID) error {
	for _, s := range seeds {
		if s < 0 || int(s) >= o.n {
			return fmt.Errorf("%w: vertex %d not in [0, %d)", ErrSeedOutOfRange, s, o.n)
		}
	}
	return nil
}

// influenceScratch is the pooled per-call state of Influence: an epoch-
// stamped membership array that distinct-counts covered RR sets without a
// per-call allocation.
type influenceScratch struct {
	marks []int32
	epoch int32
}

func (o *Oracle) getInfluenceScratch() *influenceScratch {
	s, _ := o.influencePool.Get().(*influenceScratch)
	if s == nil || len(s.marks) != o.numSets {
		s = &influenceScratch{marks: make([]int32, o.numSets)}
	}
	s.epoch++
	if s.epoch <= 0 { // epoch wrapped: reset the stamps
		clear(s.marks)
		s.epoch = 1
	}
	return s
}

// Influence returns the oracle estimate n·F(S) of the influence spread of the
// seed set S: the fraction of RR sets intersecting S times n. Seeds are
// validated against [0, n); an out-of-range seed returns ErrSeedOutOfRange
// (the oracle serves untrusted callers via internal/server).
func (o *Oracle) Influence(seeds []graph.VertexID) (float64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return 0, err
	}
	return o.influenceOf(seeds), nil
}

// influenceOf is Influence for pre-validated seed sets (internal callers
// whose seeds the oracle itself produced).
func (o *Oracle) influenceOf(seeds []graph.VertexID) float64 {
	return o.CoverageInfluence(o.coverageOf(seeds))
}

// Scale is what exact coverage counts are divided by: estimates over Sets RR
// sets of a graph with Vertices vertices. A shard fleet's Scale is the
// unsplit sketch's (fleet-wide TotalSets), so its summed counts convert to
// the same floats.
type Scale struct {
	Vertices int
	Sets     int
}

// Influence converts a coverage count to the influence estimate n·hits/R —
// the one float expression every influence answer is computed with.
func (s Scale) Influence(hits int64) float64 {
	return float64(s.Vertices) * float64(hits) / float64(s.Sets)
}

// HalfWidth returns the half-width of the normal-approximation confidence
// interval of an estimate at the given z value (2.576 for 99%), using the
// conservative p = 1/2 variance bound the paper quotes (±1.29·n/√R at 99%).
func (s Scale) HalfWidth(z float64) float64 {
	return float64(s.Vertices) * stats.BinomialCI(0.5, s.Sets, z)
}

// Scale returns the oracle's (n, R).
func (o *Oracle) Scale() Scale { return Scale{Vertices: o.n, Sets: o.numSets} }

// CoverageInfluence converts a coverage count (Coverage, GreedyCoverage) to
// the oracle's influence estimate; see Scale.Influence.
func (o *Oracle) CoverageInfluence(hits int64) float64 { return o.Scale().Influence(hits) }

// Coverage returns the raw coverage count of the seed set: the exact number
// of the oracle's RR sets that intersect S. This is the per-shard primitive
// of the distributed serving tier — coverage counts are integers, so summing
// them across the shards of a partitioned sketch reproduces the unsplit
// sketch's count exactly, and n·count/TotalSets reproduces its Influence
// byte-identically.
func (o *Oracle) Coverage(seeds []graph.VertexID) (int64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return 0, err
	}
	return o.coverageOf(seeds), nil
}

// coverageOf counts the RR sets intersecting a pre-validated seed set.
func (o *Oracle) coverageOf(seeds []graph.VertexID) int64 {
	if len(seeds) == 0 || o.numSets == 0 {
		return 0
	}
	if len(seeds) == 1 {
		// Fast path used heavily by Table 4 and the per-vertex rankings; both
		// kernels count a single vertex's coverage as its membership length.
		return o.count(seeds[0])
	}
	if o.useBitpack() {
		return o.bitpackCoverage(seeds)
	}
	s := o.getInfluenceScratch()
	var hit int64
	for _, v := range seeds {
		for _, idx := range o.members(v) {
			if s.marks[idx] != s.epoch {
				s.marks[idx] = s.epoch
				hit++
			}
		}
	}
	o.influencePool.Put(s)
	return hit
}

// ConfidenceHalfWidth returns the half-width of the confidence interval of
// an oracle estimate at the given z value; see Scale.HalfWidth.
func (o *Oracle) ConfidenceHalfWidth(z float64) float64 { return o.Scale().HalfWidth(z) }

// GreedySeeds runs greedy maximum coverage directly on the oracle's RR sets
// and returns the resulting seed set; k is clamped to the vertex count. The
// paper uses the seed set obtained at entropy 0 as "Exact Greedy"; when an
// instance has not converged within the swept sample numbers this
// oracle-greedy solution is the natural reference, since it is exactly what
// every approach converges to as its sample number grows (they all become
// coverage maximization over an ever-better RR-set or snapshot pool).
func (o *Oracle) GreedySeeds(k int) []graph.VertexID {
	seeds, _ := o.GreedyCoverage(k)
	return seeds
}

// GreedyCoverage is GreedySeeds together with the exact coverage count of
// the returned seed set (equal to Coverage(seeds)), which the loop gets for
// free as the sum of the selected gains. Every vertex starts at its
// membership count, and only stale heap tops are re-evaluated — one at a
// time at first, doubling while the top stays stale — against a covered
// state, taken empty, that grows by one seed per pick.
func (o *Oracle) GreedyCoverage(k int) ([]graph.VertexID, int64) {
	if k < 1 {
		return nil, 0
	}
	c := o.takeCover(nil)
	seeds, covered, _ := CELF(k, o.VertexCoverage(), nil, 1, c.marginal) // the local primitive never fails
	o.putCover(c)
	return seeds, covered
}

// VertexCoverage returns every vertex's single-vertex coverage count (the
// number of RR sets containing it), indexed by vertex id.
func (o *Oracle) VertexCoverage() []int64 {
	counts := make([]int64, o.n)
	for v := range counts {
		counts[v] = o.count(graph.VertexID(v))
	}
	return counts
}

// TopSingleVertices returns the topK vertices ranked by single-vertex oracle
// influence in non-increasing order, together with their influences. This is
// the quantity Table 4 reports. topK <= 0 returns all vertices.
func (o *Oracle) TopSingleVertices(topK int) ([]graph.VertexID, []float64) {
	if topK <= 0 {
		topK = o.n
	}
	page := o.RankPage(nil, topK)
	vs := make([]graph.VertexID, len(page))
	infs := make([]float64, len(page))
	for i, e := range page {
		vs[i], infs[i] = e.Vertex, o.CoverageInfluence(e.Count)
	}
	return vs, infs
}
