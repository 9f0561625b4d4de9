package estimator

import (
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/parallel"
	"imdist/internal/rng"
)

// risEstimator implements Algorithm 3.4: Build draws θ reverse-reachable sets
// R; Estimate(v) returns n·F_R(v), where F_R(v) is the fraction of RR sets
// not yet covered by the current seed set that contain v (the marginal
// coverage); Update removes the RR sets containing the new seed from further
// consideration. The estimator is the stochastic-maximum-coverage reduction
// of Borgs et al. and is monotone and submodular.
type risEstimator struct {
	cfg Config

	// rrSets holds the sampled RR sets.
	rrSets [][]graph.VertexID
	// memberOf[v] lists the indices of RR sets containing v.
	memberOf [][]int32
	// coveredSet[i] is true once an RR set has been covered by a chosen seed.
	coveredSet []bool
	// coveredCount is the number of true entries in coveredSet, kept
	// incrementally so CoveredFraction is O(1).
	coveredCount int
	// coverCount[v] is the number of not-yet-covered RR sets containing v,
	// kept incrementally so Estimate is O(1).
	coverCount []int32

	seeds []graph.VertexID
	cost  diffusion.Cost
}

func newRIS(cfg Config) *risEstimator {
	n := cfg.Graph.NumVertices()
	r := &risEstimator{
		cfg:        cfg,
		rrSets:     make([][]graph.VertexID, cfg.SampleNumber),
		memberOf:   make([][]int32, n),
		coveredSet: make([]bool, cfg.SampleNumber),
		coverCount: make([]int32, n),
	}
	r.build()
	// Index the RR sets in sample order; the membership lists and coverage
	// counts are therefore identical however the sets were generated.
	for i, set := range r.rrSets {
		for _, v := range set {
			r.memberOf[v] = append(r.memberOf[v], int32(i))
			r.coverCount[v]++
		}
	}
	return r
}

// build draws the θ RR sets. Sample i draws both its random target and its
// edge coin flips from its own stream derived from a splitter seeded once
// from the configured source (Section 4.1's two-PRNG discipline collapsed
// onto per-sample streams), so the pool of RR sets — and hence every later
// estimate — is identical for every Workers value. Workers 0 and 1 run the
// loop on the calling goroutine; larger values fan the samples out over a
// worker pool, each worker owning one sampler (scratch buffers) and one cost
// accumulator, merged exactly after the join. The pool is the one
// core.NewOracleParallel draws from an equal source.
func (r *risEstimator) build() {
	split := rng.SplitterFrom(rng.Xoshiro, r.cfg.Source)
	workers := parallel.Resolve(r.cfg.Workers, r.cfg.SampleNumber)
	samplers := make([]diffusion.ReverseSampler, workers)
	for w := range samplers {
		samplers[w] = diffusion.NewReverseSampler(r.cfg.Graph, r.cfg.Model)
	}
	parallel.ForCost(workers, r.cfg.SampleNumber, &r.cost, func(w, i int, cost *diffusion.Cost) {
		src := split.Stream(uint64(i))
		r.rrSets[i] = samplers[w].Sample(src, src, cost)
	})
}

func (r *risEstimator) Approach() Approach { return RIS }

func (r *risEstimator) SampleNumber() int { return r.cfg.SampleNumber }

// Estimate returns n · (marginal coverage of v) / θ, an unbiased estimate of
// the marginal influence of v with respect to the current seed set.
func (r *risEstimator) Estimate(v graph.VertexID) float64 {
	n := float64(r.cfg.Graph.NumVertices())
	return n * float64(r.coverCount[v]) / float64(r.cfg.SampleNumber)
}

// Update removes every RR set containing the new seed from the collection
// (Algorithm 3.4 line 8), decrementing the coverage counts of their members.
func (r *risEstimator) Update(v graph.VertexID) {
	for _, idx := range r.memberOf[v] {
		if r.coveredSet[idx] {
			continue
		}
		r.coveredSet[idx] = true
		r.coveredCount++
		for _, u := range r.rrSets[idx] {
			r.coverCount[u]--
		}
	}
	r.seeds = append(r.seeds, v)
}

func (r *risEstimator) Seeds() []graph.VertexID { return r.seeds }

func (r *risEstimator) Cost() diffusion.Cost { return r.cost }

// CoveredFraction returns the fraction of RR sets covered by the current seed
// set, i.e. F_R(S); n times this value is the running influence estimate of
// the selected seeds. It is exposed for the influence-oracle reuse described
// in Section 5.2. The covered count is maintained by Update, so the call is
// O(1).
func (r *risEstimator) CoveredFraction() float64 {
	return float64(r.coveredCount) / float64(len(r.coveredSet))
}
