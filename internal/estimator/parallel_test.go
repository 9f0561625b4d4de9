package estimator

import (
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// parallelTestGraph returns a 300-vertex Barabási–Albert influence graph.
// Under IC every edge has probability 0.1; under LT every in-edge of v has
// weight 0.9/indeg(v), which always sums to at most 1.
func parallelTestGraph(t testing.TB, model diffusion.Model) *graph.InfluenceGraph {
	t.Helper()
	g, err := gen.BarabasiAlbert(300, 3, rng.NewXoshiro(13))
	if err != nil {
		t.Fatal(err)
	}
	assign := func(_, _ graph.VertexID) float64 { return 0.1 }
	if model == diffusion.LT {
		assign = func(_, v graph.VertexID) float64 {
			return 0.9 / float64(len(g.InNeighbors(v)))
		}
	}
	ig, err := graph.NewInfluenceGraph(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func parallelSampleNumber(a Approach) int {
	if a == Oneshot {
		return 64 // β: simulations per Estimate call
	}
	return 256 // τ / θ: samples drawn in Build
}

// buildFingerprint builds an estimator with the given worker knob and returns
// its estimates over a fixed probe sequence (interleaved with Updates) plus
// its final cost. Two identical fingerprints mean the runs were
// byte-equivalent from the caller's point of view.
func buildFingerprint(t *testing.T, a Approach, model diffusion.Model, ig *graph.InfluenceGraph, workers int) ([]float64, diffusion.Cost) {
	t.Helper()
	est, err := New(a, Config{
		Graph:        ig,
		SampleNumber: parallelSampleNumber(a),
		Source:       rng.NewXoshiro(42),
		Model:        model,
		Workers:      workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, seed := range []graph.VertexID{0, 7, 31} {
		for v := 0; v < 16; v++ {
			out = append(out, est.Estimate(graph.VertexID(v)))
		}
		est.Update(seed)
	}
	return out, est.Cost()
}

// assertMatchesWorkers0 requires every listed worker count to reproduce the
// estimates and the cost of Workers 0 for approach a under IC and LT.
func assertMatchesWorkers0(t *testing.T, a Approach, workers []int) {
	t.Helper()
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		ig := parallelTestGraph(t, model)
		ref, refCost := buildFingerprint(t, a, model, ig, 0)
		for _, w := range workers {
			got, gotCost := buildFingerprint(t, a, model, ig, w)
			if gotCost != refCost {
				t.Errorf("%v/%v workers=%d: cost %+v != Workers=0 cost %+v", model, a, w, gotCost, refCost)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%v/%v workers=%d: estimate[%d] = %v != Workers=0 %v", model, a, w, i, got[i], ref[i])
					break
				}
			}
		}
	}
}

// TestSerialPathUnchanged pins the Workers knob's serial equivalence: for
// every approach under IC and LT, Workers 1 reproduces the estimates and the
// cost of Workers 0.
func TestSerialPathUnchanged(t *testing.T) {
	for _, a := range All() {
		assertMatchesWorkers0(t, a, []int{1})
	}
}

// TestParallelBuildDeterministic pins the Workers contract for the
// approaches that draw in sequence: Oneshot and Snapshot read the source one
// number after another whatever Workers says, so Workers 2, 4 and -1 (all
// CPUs) reproduce the estimates and the cost of Workers 0 under IC and LT.
func TestParallelBuildDeterministic(t *testing.T) {
	for _, a := range []Approach{Oneshot, Snapshot} {
		assertMatchesWorkers0(t, a, []int{2, 4, -1})
	}
}

// TestRISPoolIndependentOfWorkers pins the RIS stream derivation: RR set i
// draws from stream i on however many goroutines build the pool, so Workers
// 2, 4 and -1 reproduce the estimates and the cost of Workers 0 under IC and
// LT. Running it under -race also exercises RIS's concurrent Build.
func TestRISPoolIndependentOfWorkers(t *testing.T) {
	assertMatchesWorkers0(t, RIS, []int{2, 4, -1})
}

// TestParallelCostMatchesSerialTotals checks exact cost accounting at a
// worker count above one: a Snapshot build stores every vertex of each of its
// τ live-edge graphs, so its sample-vertex count is τ·n.
func TestParallelCostMatchesSerialTotals(t *testing.T) {
	ig := parallelTestGraph(t, diffusion.IC)
	est, err := New(Snapshot, Config{
		Graph:        ig,
		SampleNumber: 128,
		Source:       rng.NewXoshiro(5),
		Workers:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantVertices := int64(128 * ig.NumVertices())
	if got := est.Cost().SampleVertices; got != wantVertices {
		t.Errorf("Snapshot build at 4 workers stored %d sample vertices, want %d", got, wantVertices)
	}
}
