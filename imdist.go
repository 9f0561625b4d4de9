// Package imdist is a Go library for influence maximization under the
// Independent Cascade model and for studying the solution distribution of its
// three classic algorithmic approaches — Oneshot (Monte-Carlo simulation),
// Snapshot (pre-sampled live-edge graphs) and Reverse Influence Sampling
// (RIS) — reproducing the experimental methodology of:
//
//	Naoto Ohsaka. "The Solution Distribution of Influence Maximization: A
//	High-level Experimental Study on Three Algorithmic Approaches."
//	SIGMOD 2020.
//
// The package exposes a small high-level API:
//
//   - Load or generate a network (LoadEdgeList, LoadDataset, GenerateBA, ...)
//   - Attach edge probabilities (AssignProbabilities with "uc0.1", "uc0.01",
//     "iwc", "owc", "tv")
//   - Select seeds with any of the three approaches (SelectSeeds)
//   - Estimate influence spread with a reusable RR-set oracle
//     (NewInfluenceOracle)
//   - Study the distribution of random solutions over many trials
//     (StudyDistribution), the core of the paper's methodology
//
// The full experiment harness that regenerates every table and figure lives
// in cmd/imexp; the lower-level building blocks are in the internal packages.
package imdist

import (
	"context"
	"errors"
	"fmt"
	"io"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/estimator"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/greedy"
	"imdist/internal/rng"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// Network is a directed graph.
type Network struct {
	g *graph.Graph
}

// InfluenceNetwork is a directed graph with an influence probability on every
// edge.
type InfluenceNetwork struct {
	ig *graph.InfluenceGraph
}

// NumVertices returns the number of vertices.
func (n *Network) NumVertices() int { return n.g.NumVertices() }

// NumEdges returns the number of directed edges.
func (n *Network) NumEdges() int { return n.g.NumEdges() }

// NumVertices returns the number of vertices.
func (n *InfluenceNetwork) NumVertices() int { return n.ig.NumVertices() }

// NumEdges returns the number of directed edges.
func (n *InfluenceNetwork) NumEdges() int { return n.ig.NumEdges() }

// SumProbabilities returns m̃ = Σ_e p(e), the expected number of live edges.
func (n *InfluenceNetwork) SumProbabilities() float64 { return n.ig.SumProbabilities() }

// Stats summarizes the structure of a network (Table 3 of the paper).
type Stats struct {
	Vertices              int
	Edges                 int
	MaxOutDegree          int
	MaxInDegree           int
	ClusteringCoefficient float64
	AverageDistance       float64
}

// Stats computes structural statistics of the network.
func (n *Network) Stats() Stats {
	s := graph.ComputeStats(n.g, 64)
	return Stats{
		Vertices:              s.Vertices,
		Edges:                 s.Edges,
		MaxOutDegree:          s.MaxOutDegree,
		MaxInDegree:           s.MaxInDegree,
		ClusteringCoefficient: s.ClusteringCoefficient,
		AverageDistance:       s.AverageDistance,
	}
}

// LoadEdgeList parses a whitespace-separated directed edge list (SNAP/KONECT
// style, '#' and '%' comments allowed). Vertex ids are compacted to 0..n-1.
func LoadEdgeList(r io.Reader) (*Network, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// WriteEdgeList writes the network as a directed edge list readable by
// LoadEdgeList.
func (n *Network) WriteEdgeList(w io.Writer) error { return graph.WriteEdgeList(w, n.g) }

// LoadDataset materializes one of the study's named datasets ("Karate",
// "Physicians", "ca-GrQc", "Wiki-Vote", "com-Youtube", "soc-Pokec", "BA_s",
// "BA_d"). Datasets other than Karate and the BA networks are deterministic
// synthetic surrogates; see DESIGN.md.
func LoadDataset(name string) (*Network, error) {
	ds, err := data.Parse(name)
	if err != nil {
		return nil, err
	}
	g, err := data.Load(ds, data.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// DatasetNames returns the names accepted by LoadDataset.
func DatasetNames() []string {
	names := data.Names()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}

// GenerateBA generates a Barabási–Albert graph with n vertices and m
// attachments per new vertex, assigning each edge a random direction; this is
// how the paper builds BA_s (m=1) and BA_d (m=11).
func GenerateBA(n, m int, seed uint64) (*Network, error) {
	g, err := gen.BarabasiAlbert(n, m, rng.NewXoshiro(seed))
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// NewNetwork builds a network with n vertices from a list of directed edges
// given as [from, to] pairs.
func NewNetwork(n int, edges [][2]int) (*Network, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1])); err != nil {
			return nil, err
		}
	}
	return &Network{g: b.Build()}, nil
}

// AssignProbabilities attaches influence probabilities to the network using
// one of the paper's models: "uc0.1", "uc0.01", "iwc", "owc" or "tv"
// (trivalency). The seed is only used by randomized models.
func (n *Network) AssignProbabilities(model string, seed uint64) (*InfluenceNetwork, error) {
	m, err := workload.ParseModel(model)
	if err != nil {
		return nil, err
	}
	ig, err := workload.Assign(n.g, m, rng.NewXoshiro(seed))
	if err != nil {
		return nil, err
	}
	return &InfluenceNetwork{ig: ig}, nil
}

// AssignUniform attaches the same probability p to every edge.
func (n *Network) AssignUniform(p float64) (*InfluenceNetwork, error) {
	ig, err := graph.NewInfluenceGraph(n.g, func(_, _ graph.VertexID) float64 { return p })
	if err != nil {
		return nil, err
	}
	return &InfluenceNetwork{ig: ig}, nil
}

// Approach names one of the three algorithmic approaches.
type Approach = string

// The three approaches accepted by SelectSeeds and StudyDistribution.
const (
	Oneshot  Approach = "Oneshot"
	Snapshot Approach = "Snapshot"
	RIS      Approach = "RIS"
)

// Approaches returns the three approach names in the paper's order.
func Approaches() []Approach { return []Approach{Oneshot, Snapshot, RIS} }

// DiffusionModel names a network diffusion model for SeedOptions and
// NewInfluenceOracleForModel: "IC" (Independent Cascade, the paper's model and
// the default) or "LT" (Linear Threshold, provided as an extension — edge
// probabilities are then interpreted as LT weights and must sum to at most 1
// over each vertex's in-edges).
type DiffusionModel = string

// The supported diffusion models.
const (
	IC DiffusionModel = "IC"
	LT DiffusionModel = "LT"
)

// SeedOptions configures seed selection.
type SeedOptions struct {
	// Approach is "Oneshot", "Snapshot" or "RIS".
	Approach Approach
	// SeedSize is the number of seeds k to select.
	SeedSize int
	// SampleNumber is β (Oneshot: simulations per estimate), τ (Snapshot:
	// live-edge graphs) or θ (RIS: reverse-reachable sets).
	SampleNumber int
	// Seed drives all randomness of the run; equal seeds reproduce the run.
	Seed uint64
	// Lazy selects CELF lazy greedy instead of the exhaustive greedy scan.
	Lazy bool
	// Model is the diffusion model; empty means IC.
	Model DiffusionModel
	// Workers is a speed setting: it never changes the selected seeds or the
	// reported Cost. RIS draws its θ reverse-reachable sets on that many
	// goroutines (0 and 1 on the calling goroutine, negative values on one
	// per available CPU), each set from its own rng stream derived from
	// Seed. Oneshot and Snapshot draw their random numbers in sequence, as
	// the paper's algorithms do, and run on the calling goroutine.
	Workers int
}

func parseModel(m DiffusionModel) (diffusion.Model, error) {
	if m == "" {
		return diffusion.IC, nil
	}
	return diffusion.ParseModel(string(m))
}

// Cost reports the work a seed selection performed, in the paper's
// implementation-independent units.
type Cost struct {
	// VerticesExamined and EdgesExamined are the traversal cost
	// (proportional to running time).
	VerticesExamined int64
	EdgesExamined    int64
	// SampleVertices and SampleEdges are the sample size stored in memory
	// (proportional to memory usage).
	SampleVertices int64
	SampleEdges    int64
}

// SeedResult is the outcome of SelectSeeds.
type SeedResult struct {
	// Seeds is the selected seed set in selection order.
	Seeds []int
	// Cost is the traversal cost and sample size of the run.
	Cost Cost
}

var errNilNetwork = errors.New("imdist: nil influence network")

// SelectSeeds runs the chosen approach inside the paper's greedy framework
// and returns the selected seed set.
func (n *InfluenceNetwork) SelectSeeds(opt SeedOptions) (*SeedResult, error) {
	if n == nil || n.ig == nil {
		return nil, errNilNetwork
	}
	a, err := estimator.ParseApproach(string(opt.Approach))
	if err != nil {
		return nil, err
	}
	model, err := parseModel(opt.Model)
	if err != nil {
		return nil, err
	}
	est, err := estimator.New(a, estimator.Config{
		Graph:        n.ig,
		SampleNumber: opt.SampleNumber,
		Source:       rng.Split(rng.Xoshiro, opt.Seed, 1),
		Model:        model,
		Workers:      opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	var seeds []graph.VertexID
	shuffle := rng.Split(rng.Xoshiro, opt.Seed, 2)
	if opt.Lazy {
		seeds, err = greedy.RunLazy(est, n.ig.NumVertices(), opt.SeedSize, shuffle)
	} else {
		seeds, err = greedy.Run(est, n.ig.NumVertices(), opt.SeedSize, shuffle)
	}
	if err != nil {
		return nil, err
	}
	c := est.Cost()
	return &SeedResult{
		Seeds: toInts(seeds),
		Cost: Cost{
			VerticesExamined: c.VerticesExamined,
			EdgesExamined:    c.EdgesExamined,
			SampleVertices:   c.SampleVertices,
			SampleEdges:      c.SampleEdges,
		},
	}, nil
}

// InfluenceOracle estimates the influence spread of arbitrary seed sets from
// a fixed pool of reverse-reachable sets, following Section 5.2 of the paper:
// build it once per influence network and reuse it so identical seed sets
// always receive identical estimates.
type InfluenceOracle struct {
	o *core.Oracle
}

// NewInfluenceOracle builds an IC oracle backed by rrSets reverse-reachable
// sets. The paper uses 10^7; 10^5–10^6 is usually enough for small networks.
func (n *InfluenceNetwork) NewInfluenceOracle(rrSets int, seed uint64) (*InfluenceOracle, error) {
	return n.NewInfluenceOracleForModel(IC, rrSets, seed)
}

// NewInfluenceOracleForModel builds an influence oracle under the given
// diffusion model ("IC" or "LT").
func (n *InfluenceNetwork) NewInfluenceOracleForModel(model DiffusionModel, rrSets int, seed uint64) (*InfluenceOracle, error) {
	return n.NewInfluenceOracleWithOptions(OracleOptions{Model: model, RRSets: rrSets, Seed: seed})
}

// OracleOptions configures NewInfluenceOracleWithOptions.
type OracleOptions struct {
	// Model is the diffusion model; empty means IC.
	Model DiffusionModel
	// RRSets is the number of reverse-reachable sets backing the oracle.
	RRSets int
	// Seed drives all randomness of the build.
	Seed uint64
	// Workers is the build's goroutine count: 0 and 1 generate and index the
	// RR sets on the calling goroutine, larger values on that many
	// goroutines, negative values on one per available CPU. Every RR set
	// draws from its own rng stream derived from Seed, so the oracle is
	// byte-identical at every worker count.
	Workers int
}

// NewInfluenceOracleWithOptions builds an influence oracle with full control
// over the diffusion model, RR-set count, seed and build parallelism.
func (n *InfluenceNetwork) NewInfluenceOracleWithOptions(opt OracleOptions) (*InfluenceOracle, error) {
	if n == nil || n.ig == nil {
		return nil, errNilNetwork
	}
	m, err := parseModel(opt.Model)
	if err != nil {
		return nil, err
	}
	o, err := core.NewOracleParallelSeeded(n.ig, m, opt.RRSets, opt.Workers, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &InfluenceOracle{o: o}, nil
}

// Influence returns the oracle estimate of the influence spread of seeds.
// Every seed must lie in [0, NumVertices()); out-of-range seeds return an
// error, so the oracle can be fed untrusted input (see cmd/imserve). The
// range check happens before the internal int32 conversion, so ids beyond
// 2^31 cannot wrap into valid vertices.
func (o *InfluenceOracle) Influence(seeds []int) (float64, error) {
	n := o.o.NumVertices()
	for _, v := range seeds {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("imdist: seed vertex %d not in [0, %d)", v, n)
		}
	}
	return o.o.Influence(toVertexIDs(seeds))
}

// BatchInfluence evaluates many seed sets in one pass over the oracle's RR
// sets using the sharded batch query engine: the RR-set index space is split
// into cache-friendly shards and the shards × queries grid is fanned out over
// workers goroutines (0 and 1 evaluate on the calling goroutine, larger
// values use that many workers, negative values one per CPU). The returned
// values are byte-identical to calling Influence on each seed set in a loop,
// for any worker count.
//
// Both returned slices have len(seedSets) entries. errs[i] is non-nil when
// seedSets[i] contains a vertex outside [0, NumVertices()); values[i] is then
// 0 and the other items are unaffected, so one bad query never fails a batch.
func (o *InfluenceOracle) BatchInfluence(seedSets [][]int, workers int) (values []float64, errs []error) {
	n := o.o.NumVertices()
	values = make([]float64, len(seedSets))
	errs = make([]error, len(seedSets))
	converted := make([][]graph.VertexID, len(seedSets))
	for i, seeds := range seedSets {
		// Range-check before the int32 conversion, exactly as Influence does,
		// so ids beyond 2^31 cannot wrap into valid vertices.
		for _, v := range seeds {
			if v < 0 || v >= n {
				errs[i] = fmt.Errorf("imdist: seed set %d: seed vertex %d not in [0, %d)", i, v, n)
				break
			}
		}
		if errs[i] == nil {
			converted[i] = toVertexIDs(seeds)
		}
	}
	batchValues, batchErrs := o.o.BatchInfluence(converted, workers)
	for i := range seedSets {
		if errs[i] != nil {
			continue
		}
		values[i], errs[i] = batchValues[i], batchErrs[i]
	}
	return values, errs
}

// GreedySeeds returns the greedy maximum-coverage solution computed directly
// on the oracle's RR sets; it is the reference ("Exact Greedy") solution the
// three approaches converge to as their sample number grows.
func (o *InfluenceOracle) GreedySeeds(k int) []int { return toInts(o.o.GreedySeeds(k)) }

// TopVertices returns the topK vertices ranked by single-vertex influence
// together with their influence estimates.
func (o *InfluenceOracle) TopVertices(topK int) ([]int, []float64) {
	vs, infs := o.o.TopSingleVertices(topK)
	return toInts(vs), infs
}

// Kernel reports the coverage kernel answering queries, "epoch" or
// "bitpack": the one the oracle picked from its sketch's shape when it was
// built or loaded. Both kernels return byte-identical answers.
func (o *InfluenceOracle) Kernel() string { return string(o.o.KernelResolved()) }

// ConfidenceHalfWidth99 returns the half-width of the 99% confidence interval
// of the oracle's influence estimates.
func (o *InfluenceOracle) ConfidenceHalfWidth99() float64 { return o.o.ConfidenceHalfWidth(2.576) }

// NumVertices returns the number of vertices of the oracle's graph.
func (o *InfluenceOracle) NumVertices() int { return o.o.NumVertices() }

// NumRRSets returns the number of reverse-reachable sets backing the oracle.
func (o *InfluenceOracle) NumRRSets() int { return o.o.NumSets() }

// Model returns the diffusion model the oracle was built under.
func (o *InfluenceOracle) Model() DiffusionModel { return DiffusionModel(o.o.Model().String()) }

// BuildSeed returns the master seed the oracle was built from.
func (o *InfluenceOracle) BuildSeed() uint64 { return o.o.BuildSeed() }

// SaveSketch serializes the oracle — its RR-set index plus build metadata —
// to w in the versioned, checksummed binary sketch format of
// internal/sketchio. A sketch loaded back with LoadSketch answers every
// query byte-identically to this oracle, which is the foundation of the
// build-once / serve-many pipeline (imsketch builds and saves, imserve loads
// and serves).
func (o *InfluenceOracle) SaveSketch(w io.Writer) error {
	return sketchio.Encode(w, o.o)
}

// SaveSketchFile writes the oracle's sketch to path atomically (temp file +
// rename), so a concurrently starting server never loads a partial sketch.
func (o *InfluenceOracle) SaveSketchFile(path string) error {
	return sketchio.WriteFile(path, o.o)
}

// LoadSketch reads a sketch previously written by SaveSketch. Decoding is
// strict: version, checksum and every vertex id are validated, so corrupted
// or truncated sketches return errors rather than building a broken oracle.
func LoadSketch(r io.Reader) (*InfluenceOracle, error) {
	o, err := sketchio.Decode(r)
	if err != nil {
		return nil, err
	}
	return &InfluenceOracle{o: o}, nil
}

// LoadSketchFile loads a sketch from path onto the heap. The file must hold
// exactly one sketch: bytes after its checksum are corruption. Use
// OpenSketchFile to serve a sketch zero-copy out of the page cache.
func LoadSketchFile(path string) (*InfluenceOracle, error) {
	o, err := sketchio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &InfluenceOracle{o: o}, nil
}

// MappedSketch is a sketch whose oracle may serve queries directly out of a
// memory-mapped file (zero-copy: the oracle's vertex→RR-set member index, the
// only structure queries read, aliases the mapping, so a load verifies the
// file without copying it or allocating anything proportional to it, and
// the page cache is shared between processes serving the same sketch).
// Sketches in the read-only version 1 format load onto the heap instead;
// saving one again converts it. The mapping's lifetime is reference-counted: Close drops the
// owner reference, and the file is unmapped only after every reference taken
// with Acquire has been released — the mechanism imserve's hot reload uses
// to let in-flight queries drain on a replaced sketch.
type MappedSketch struct {
	m      *sketchio.MappedSketch
	oracle *InfluenceOracle
}

// OpenSketchFile opens the sketch at path as a MappedSketch. For version 1
// files, and on platforms (or byte orders) without zero-copy support, the
// sketch is decoded onto the heap and the same API degrades to no-ops. The caller must Close the sketch
// when done; queries that may run concurrently with Close must be bracketed
// by Acquire/Release.
func OpenSketchFile(path string) (*MappedSketch, error) {
	m, err := sketchio.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &MappedSketch{m: m, oracle: &InfluenceOracle{o: m.Oracle()}}, nil
}

// Oracle returns the sketch's influence oracle. When Mapped reports true its
// queries read the mapped file, so they must complete before Close — or hold
// an Acquire/Release reference.
func (s *MappedSketch) Oracle() *InfluenceOracle { return s.oracle }

// Mapped reports whether the oracle serves queries zero-copy out of the
// live file mapping.
func (s *MappedSketch) Mapped() bool { return s.m.ZeroCopy() }

// Acquire takes a query reference that keeps the mapping alive across a
// concurrent Close; it returns false once Close has been called.
func (s *MappedSketch) Acquire() bool { return s.m.Acquire() }

// Release drops a reference taken by Acquire; the last release after Close
// unmaps the file.
func (s *MappedSketch) Release() { s.m.Release() }

// Close drops the owner reference. The file is unmapped immediately when no
// Acquire references are outstanding, otherwise when the last is released.
func (s *MappedSketch) Close() { s.m.Close() }

// SketchBuilder grows an RR-set sketch incrementally instead of committing
// to a fixed RR-set count up front: AppendBatch adds more sets, ErrorBound
// reports the sketch's current relative-error estimate, and BuildToTarget
// loops append→check until a target error or a hard cap is reached. The
// RR-set sequence is pinned by the build seed — a sketch grown in any batch
// schedule, at any worker count, or across checkpoint/resume is
// byte-identical on disk to the one-shot build of the same total — so
// incremental building costs nothing in reproducibility.
//
// A SketchBuilder is not safe for concurrent use; each batch parallelizes
// internally across the configured workers.
type SketchBuilder struct {
	b *core.SketchBuilder
}

// NewSketchBuilder returns an empty incremental sketch builder over the
// network. opt.Model, opt.Seed and opt.Workers have their
// NewInfluenceOracleWithOptions meaning; opt.RRSets is ignored — the builder
// grows on demand.
func (n *InfluenceNetwork) NewSketchBuilder(opt OracleOptions) (*SketchBuilder, error) {
	if n == nil || n.ig == nil {
		return nil, errNilNetwork
	}
	m, err := parseModel(opt.Model)
	if err != nil {
		return nil, err
	}
	b, err := core.NewSketchBuilder(n.ig, m, opt.Workers, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &SketchBuilder{b: b}, nil
}

// ResumeSketchBuilder reconstructs a builder from a checkpoint stream
// previously written by SketchBuilder.Checkpoint. The checkpoint must have
// been built over this same influence network; generation continues exactly
// where it stopped.
func (n *InfluenceNetwork) ResumeSketchBuilder(r io.Reader, workers int) (*SketchBuilder, error) {
	if n == nil || n.ig == nil {
		return nil, errNilNetwork
	}
	b, err := sketchio.ResumeBuilder(r, n.ig, workers)
	if err != nil {
		return nil, err
	}
	return &SketchBuilder{b: b}, nil
}

// AppendBatch generates m more RR sets.
func (b *SketchBuilder) AppendBatch(m int) error { return b.b.AppendBatch(m) }

// NumRRSets returns the number of RR sets generated so far.
func (b *SketchBuilder) NumRRSets() int { return b.b.NumSets() }

// ErrorBound estimates the sketch's current relative error for seed sets of
// size k at confidence 1-delta (the adaptive stopping quantity; +Inf while
// the sketch is empty). It is a same-pool Hoeffding stopping heuristic, not
// a (1−1/e−ε) certificate. Non-positive k and out-of-range delta select the
// defaults (k=10, delta=0.01).
func (b *SketchBuilder) ErrorBound(k int, delta float64) float64 {
	return b.b.ErrorBound(k, delta)
}

// Checkpoint writes a snapshot of the build to w in the append-only v2
// checkpoint format; ResumeSketchBuilder continues from it later. For an
// on-disk checkpoint that grows batch by batch during a long build, see
// BuildSketchWithCheckpoint.
func (b *SketchBuilder) Checkpoint(w io.Writer) error {
	return sketchio.WriteCheckpoint(w, b.b)
}

// Oracle finalizes the current sketch into a queryable influence oracle (a
// snapshot: the builder can keep growing afterwards).
func (b *SketchBuilder) Oracle() (*InfluenceOracle, error) {
	o, err := b.b.Oracle()
	if err != nil {
		return nil, err
	}
	return &InfluenceOracle{o: o}, nil
}

// BuildSummary reports how a target build ended.
type BuildSummary struct {
	// RRSets is the final sketch size.
	RRSets int
	// Bound is the final ErrorBound (+Inf when it was never computed, i.e. a
	// fixed-size build).
	Bound float64
	// Converged reports whether the error target was met (false when the
	// cap stopped the build first).
	Converged bool
}

// BuildProgress is the per-round state handed to BuildOptions.Progress.
type BuildProgress struct {
	// RRSets is the current sketch size; Appended is how many sets the round
	// just finished added.
	RRSets   int
	Appended int
	// Bound is the current ErrorBound (+Inf until enough sets exist to
	// estimate one, or for fixed-size builds).
	Bound float64
	// Fraction estimates overall completion in [0, 1].
	Fraction float64
	// SpillBytes is the build's durable on-disk footprint — the checkpoint
	// file's size for every BuildSketchWithCheckpoint build, spilled or not,
	// and 0 for in-memory builds.
	SpillBytes int64
}

// BuildOptions configures SketchBuilder.Build and BuildSketchWithCheckpoint.
type BuildOptions struct {
	// TargetEps is the target relative error; <= 0 disables the accuracy
	// stop and builds straight to MaxSets.
	TargetEps float64
	// Delta is the bound's failure probability (default 0.01) and K the
	// seed-set size it targets (default 10).
	Delta float64
	K     int
	// MaxSets caps the sketch size. Required.
	MaxSets int
	// Progress, when non-nil, observes every build round.
	Progress func(BuildProgress)
	// Spill makes BuildSketchWithCheckpoint keep no RR set in memory: each
	// round's sets go to the checkpoint file, and the member index is built
	// by decoding them back from it, so sketches far larger than RAM build.
	// Without it every set also stays on the heap. Both write the same v2
	// checkpoint file through the same writer, so interruption and resume
	// work alike — and the finished sketch is byte-identical to an in-memory
	// build.
	Spill bool
}

func (opt BuildOptions) coreTarget() core.BuildTarget {
	t := core.BuildTarget{
		Eps:     opt.TargetEps,
		Delta:   opt.Delta,
		K:       opt.K,
		MaxSets: opt.MaxSets,
	}
	if opt.Progress != nil {
		t.Progress = func(p core.BuildProgress) error {
			opt.Progress(BuildProgress{
				RRSets:     p.Sets,
				Appended:   p.Appended,
				Bound:      p.Bound,
				Fraction:   p.Fraction,
				SpillBytes: p.SpillBytes,
			})
			return nil
		}
	}
	return t
}

func toSummary(res core.BuildResult) BuildSummary {
	return BuildSummary{RRSets: res.Sets, Bound: res.Bound, Converged: res.Converged}
}

// Build grows the sketch in geometrically increasing rounds until the error
// target or the cap is reached. Cancelling ctx stops it between rounds with
// ctx's error; the builder stays valid (checkpoint it, or call Build again).
func (b *SketchBuilder) Build(ctx context.Context, opt BuildOptions) (BuildSummary, error) {
	res, err := b.b.BuildToTarget(ctx, opt.coreTarget())
	return toSummary(res), err
}

// BuildToTarget grows the sketch until its ErrorBound (at the default k and
// the given delta) reaches eps, or maxSets is hit. It is Build with the
// common knobs inline.
func (b *SketchBuilder) BuildToTarget(eps, delta float64, maxSets int) (BuildSummary, error) {
	return b.Build(context.Background(), BuildOptions{TargetEps: eps, Delta: delta, MaxSets: maxSets})
}

// BuildSketchToTarget builds an influence oracle adaptively: RR sets are
// generated until the relative-error estimate reaches eps (or maxSets caps
// the build), instead of guessing the count up front as NewInfluenceOracle
// does. It returns the finished oracle together with the build summary.
func (n *InfluenceNetwork) BuildSketchToTarget(opt OracleOptions, eps, delta float64, maxSets int) (*InfluenceOracle, BuildSummary, error) {
	b, err := n.NewSketchBuilder(opt)
	if err != nil {
		return nil, BuildSummary{}, err
	}
	sum, err := b.BuildToTarget(eps, delta, maxSets)
	if err != nil {
		return nil, sum, err
	}
	o, err := b.Oracle()
	if err != nil {
		return nil, sum, err
	}
	return o, sum, nil
}

// BuildSketchWithCheckpoint runs a checkpointed build end to end: it opens
// (or resumes) the append-only checkpoint file at path, continues the build
// from the RR sets already durable there, and writes each round's new sets
// through to the file as one CRC-framed segment before reporting progress.
// Interrupt it at any point — crash included — and the same call continues
// where the checkpoint left off, ultimately producing a sketch
// byte-identical to the uninterrupted build. The file is closed before the
// oracle is returned and left in place; remove it once the final sketch is
// saved.
//
// A checkpointed build keeps every set decoded on the heap beside the file
// and appends in doubling rounds. With bopt.Spill set it keeps none and
// appends at most 2^16 sets per round, so sampling holds about one round's
// batch; finalizing still builds the whole member index on the heap. The
// sketch is the same either way. The returned oracle holds only its member
// index.
func (n *InfluenceNetwork) BuildSketchWithCheckpoint(ctx context.Context, path string, opt OracleOptions, bopt BuildOptions) (*InfluenceOracle, BuildSummary, error) {
	if n == nil || n.ig == nil {
		return nil, BuildSummary{}, errNilNetwork
	}
	m, err := parseModel(opt.Model)
	if err != nil {
		return nil, BuildSummary{}, err
	}
	mode := int64(-1) // keep every set
	if bopt.Spill {
		mode = 0 // keep none
	}
	b, store, res, err := sketchio.BuildSpill(ctx, path, n.ig, m, opt.Workers, opt.Seed, mode, bopt.coreTarget())
	if err != nil {
		if store != nil {
			_ = store.Close()
		}
		return nil, toSummary(res), err
	}
	// The oracle keeps only its member index, so the file closes as soon as
	// the index is built.
	o, err := b.Oracle()
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, toSummary(res), err
	}
	return &InfluenceOracle{o: o}, toSummary(res), nil
}

// SketchFileInfo describes a sketch or checkpoint file section by section —
// what imsketch -info prints. Every section's CRC-32C is verified against the
// bytes on disk.
type SketchFileInfo struct {
	// Path, Size and Version identify the file (3 = sketch, 2 = build
	// checkpoint, 1 = the read-only sketch format of earlier builds).
	Path    string
	Size    int64
	Version int
	// Model, BuildSeed and Vertices are the recorded build identity;
	// RRSets is the total across intact sections.
	Model     DiffusionModel
	BuildSeed uint64
	Vertices  int
	RRSets    int
	// ShardIndex, ShardCount and TotalSets are the shard lineage of a sketch
	// produced by SplitSketchFile (imsketch -split): which slice of which
	// fleet this file is. ShardCount is 0 for an unsharded sketch.
	ShardIndex int
	ShardCount int
	TotalSets  int
	// Sections lists the file's physical sections in order; Corrupt reports
	// whether any failed its structure or checksum checks.
	Sections []SketchSection
	Corrupt  bool
}

// SketchSection is one verified section of a sketch file.
type SketchSection struct {
	Name   string
	Offset int64
	Size   int64
	// RRSets is the number of RR-set records the section carries.
	RRSets int
	// CRC is the stored CRC-32C guarding the section (0 when it has none).
	CRC uint32
	// OK reports whether the section passed verification; Detail explains a
	// failure.
	OK     bool
	Detail string
}

// InspectSketchFile verifies the sketch or checkpoint file at path section by
// section (structure and CRC-32C) without loading it into an oracle. Damage
// is reported per section in the result; only an unreadable or unclassifiable
// file returns an error.
func InspectSketchFile(path string) (*SketchFileInfo, error) {
	fi, err := sketchio.Inspect(path)
	if err != nil {
		return nil, err
	}
	out := &SketchFileInfo{
		Path:      fi.Path,
		Size:      fi.Size,
		Version:   fi.Version,
		Model:     DiffusionModel(fi.Meta.Model.String()),
		BuildSeed: fi.Meta.Seed,
		Vertices:  fi.Meta.N,
		RRSets:    fi.NumSets,
		Corrupt:   fi.Corrupt,
	}
	if fi.Shard.Sharded() {
		out.ShardIndex = fi.Shard.Index
		out.ShardCount = fi.Shard.Count
		out.TotalSets = fi.Shard.TotalSets
	}
	out.Sections = make([]SketchSection, len(fi.Sections))
	for i, s := range fi.Sections {
		out.Sections[i] = SketchSection{
			Name:   s.Name,
			Offset: s.Offset,
			Size:   s.Size,
			RRSets: s.Sets,
			CRC:    s.CRC,
			OK:     s.OK,
			Detail: s.Detail,
		}
	}
	return out, nil
}

// SplitSketchFile partitions the sketch file at path into shards files along
// the batch engine's internal 64Ki-set block boundaries (imsketch -split).
// Each output — written next to outPrefix as
// "<outPrefix>.shard<i>-of-<shards>" — is a complete, independently loadable
// sketch over a contiguous slice of the RR-set pool, carrying shard lineage
// (index, fleet size, fleet-wide set total) that imserve surfaces and the
// cluster coordinator verifies on every query. The input is fully validated
// (structure and CRC-32C) before any shard is written; payload bytes are
// copied verbatim, so decoded shards reproduce the original's RR sets
// record for record. Splitting an already-split shard is rejected.
func SplitSketchFile(path, outPrefix string, shards int) ([]string, error) {
	return sketchio.SplitSketch(path, outPrefix, shards)
}

// StudyOptions configures a solution-distribution study (the paper's core
// methodology): run one approach T times at a fixed sample number and look at
// the distribution of the random seed sets and their influences.
type StudyOptions struct {
	Approach     Approach
	SeedSize     int
	SampleNumber int
	Trials       int
	Seed         uint64
	// Oracle evaluates every produced seed set; it must come from the same
	// influence network.
	Oracle *InfluenceOracle
	// Workers is the number of goroutines the trials fan out over (0 and 1
	// run them one after another, negative values use one per available
	// CPU). Each trial runs the approach's serial algorithm on its own rng
	// streams derived from Seed, so the result is byte-identical at every
	// worker count.
	Workers int
}

// StudyResult summarizes the empirical solution distribution.
type StudyResult struct {
	// Entropy is the Shannon entropy (bits) of the seed-set distribution;
	// 0 means every trial returned the same seed set.
	Entropy float64
	// DistinctSeedSets is the number of different seed sets observed.
	DistinctSeedSets int
	// ModalSeeds is the most frequent seed set and ModalCount its frequency.
	ModalSeeds []int
	ModalCount int
	// MeanInfluence, StdDevInfluence, Percentile1, Median and Percentile99
	// summarize the influence distribution.
	MeanInfluence   float64
	StdDevInfluence float64
	Percentile1     float64
	Median          float64
	Percentile99    float64
	// MeanTraversalCost and MeanSampleSize are per-trial averages of the
	// paper's efficiency metrics.
	MeanTraversalCost float64
	MeanSampleSize    float64
	// Influences lists the per-trial oracle influences in trial order.
	Influences []float64
}

// StudyDistribution runs opt.Trials independent seed selections and returns
// the empirical distribution summary.
func (n *InfluenceNetwork) StudyDistribution(opt StudyOptions) (*StudyResult, error) {
	if n == nil || n.ig == nil {
		return nil, errNilNetwork
	}
	if opt.Oracle == nil {
		return nil, errors.New("imdist: StudyDistribution requires an oracle (see NewInfluenceOracle)")
	}
	a, err := estimator.ParseApproach(string(opt.Approach))
	if err != nil {
		return nil, err
	}
	d, err := core.RunDistribution(core.RunConfig{
		Graph:        n.ig,
		Approach:     a,
		SampleNumber: opt.SampleNumber,
		SeedSize:     opt.SeedSize,
		Trials:       opt.Trials,
		MasterSeed:   opt.Seed,
		Oracle:       opt.Oracle.o,
		Workers:      opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	modal, count := d.ModalSeedSet()
	box := d.BoxPlot()
	mc := d.MeanCost()
	return &StudyResult{
		Entropy:           d.Entropy(),
		DistinctSeedSets:  d.DistinctSeedSets(),
		ModalSeeds:        toInts(modal),
		ModalCount:        count,
		MeanInfluence:     box.Mean,
		StdDevInfluence:   box.StdDev,
		Percentile1:       box.Percentile1,
		Median:            box.Median,
		Percentile99:      box.Percentile99,
		MeanTraversalCost: mc.Traversal(),
		MeanSampleSize:    mc.SampleSize(),
		Influences:        d.Influences(),
	}, nil
}

// SimulateInfluence estimates Inf(seeds) with plain forward Monte-Carlo
// simulation (the Oneshot estimator applied once), which is useful as an
// oracle-free spot check.
func (n *InfluenceNetwork) SimulateInfluence(seeds []int, simulations int, seed uint64) (float64, error) {
	if n == nil || n.ig == nil {
		return 0, errNilNetwork
	}
	if simulations < 1 {
		return 0, fmt.Errorf("imdist: simulations must be >= 1, got %d", simulations)
	}
	est, err := estimator.New(estimator.Oneshot, estimator.Config{
		Graph:        n.ig,
		SampleNumber: simulations,
		Source:       rng.NewXoshiro(seed),
	})
	if err != nil {
		return 0, err
	}
	ids := toVertexIDs(seeds)
	if len(ids) == 0 {
		return 0, nil
	}
	// Estimate(v) evaluates Inf(S + v); commit all but the last seed first.
	for _, v := range ids[:len(ids)-1] {
		est.Update(v)
	}
	return est.Estimate(ids[len(ids)-1]), nil
}

func toInts(vs []graph.VertexID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

func toVertexIDs(vs []int) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, v := range vs {
		out[i] = graph.VertexID(v)
	}
	return out
}
