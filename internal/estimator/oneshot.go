package estimator

import (
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// oneshotEstimator implements Algorithm 3.2: Build and Update do nothing;
// Estimate simulates the diffusion process β times from S+v and returns the
// average number of activated vertices. The estimate is unbiased but the
// estimator is neither monotone nor submodular because successive Estimate
// calls use independent randomness.
type oneshotEstimator struct {
	cfg   Config
	seeds []graph.VertexID
	// scratch holds seeds plus the candidate vertex to avoid reallocating on
	// every Estimate call.
	scratch []graph.VertexID
	cost    diffusion.Cost
	// sim is set up once because Estimate is called n times per greedy round.
	sim simulator
}

func newOneshot(cfg Config) *oneshotEstimator {
	return &oneshotEstimator{
		cfg:     cfg,
		scratch: make([]graph.VertexID, 0, 16),
		sim:     newSimulator(cfg),
	}
}

func (o *oneshotEstimator) Approach() Approach { return Oneshot }

func (o *oneshotEstimator) SampleNumber() int { return o.cfg.SampleNumber }

func (o *oneshotEstimator) Estimate(v graph.VertexID) float64 {
	o.scratch = append(o.scratch[:0], o.seeds...)
	o.scratch = append(o.scratch, v)
	return o.sim.EstimateInfluence(o.scratch, o.cfg.SampleNumber, o.cfg.Source, &o.cost)
}

func (o *oneshotEstimator) Update(v graph.VertexID) {
	o.seeds = append(o.seeds, v)
}

func (o *oneshotEstimator) Seeds() []graph.VertexID { return o.seeds }

func (o *oneshotEstimator) Cost() diffusion.Cost { return o.cost }
