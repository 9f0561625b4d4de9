package diffusion

import (
	"math"
	"slices"
	"testing"

	"imdist/internal/data"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// perCoinRRSampler is the reference IC sampler: a reverse BFS that draws one
// Float64 from edgeSrc per coin, at its edge. RRSampler must reproduce its
// sets and costs exactly from the same streams.
type perCoinRRSampler struct {
	g       *graph.InfluenceGraph
	visited []uint32
	epoch   uint32
	queue   []graph.VertexID
}

func (r *perCoinRRSampler) SampleFor(target graph.VertexID, edgeSrc rng.Source, cost *Cost) []graph.VertexID {
	r.epoch++
	r.queue = append(r.queue[:0], target)
	r.visited[target] = r.epoch
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		cost.VerticesExamined++
		probs := r.g.InProbabilities(v)
		for i, u := range r.g.InNeighbors(v) {
			cost.EdgesExamined++
			if r.visited[u] == r.epoch {
				continue
			}
			if edgeSrc.Float64() < probs[i] {
				r.visited[u] = r.epoch
				r.queue = append(r.queue, u)
			}
		}
	}
	cost.SampleVertices += int64(len(r.queue))
	return slices.Clone(r.queue)
}

// coinProbabilities are edge probabilities at the edges of the integer coin
// test: certain and dyadic edges (p·2^53 integral), decimal and repeating
// ones (not integral), the smallest positive float64, and the neighbours of
// 1 and of 2^-53.
var coinProbabilities = []float64{
	1, 0.5, 0.1, 1.0 / 3, 0.375, 0.01, 0.001,
	math.SmallestNonzeroFloat64,
	math.Nextafter(1, 0),
	1.0 / (1 << 53), 1.5 / (1 << 53), math.Nextafter(1.0/(1<<53), 1),
}

// mixedProbabilities assigns each edge one of coinProbabilities by its
// endpoints.
func mixedProbabilities(u, v graph.VertexID) float64 {
	return coinProbabilities[(int(u)*7+int(v)*13)%len(coinProbabilities)]
}

func baGraph(t testing.TB, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, m, rng.NewXoshiro(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// samplerCases returns the influence graphs the differential tests sample: a
// BA graph under iwc (1/d for every in-degree d), uc0.1 and the mixed
// probabilities, and the transpose of the mixed one. Under the mixed
// probabilities most sets hold more than 64 vertices and flip hundreds of
// coins, so scans cross the boundaries of blocks of every size inside a
// vertex's in-edges.
func samplerCases(t *testing.T) map[string]*graph.InfluenceGraph {
	g := baGraph(t, 1000, 6)
	assign := func(m workload.Model) *graph.InfluenceGraph {
		ig, err := workload.Assign(g, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ig
	}
	mixed, err := graph.NewInfluenceGraph(g, mixedProbabilities)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.InfluenceGraph{
		"iwc":              assign(workload.IWC),
		"uc0.1":            assign(workload.UC01),
		"mixed":            mixed,
		"mixed-transposed": mixed.Transpose(),
	}
}

// TestRRSamplerMatchesPerCoinLoop draws 10^4 RR sets per graph, each from its
// own stream as the sketch builder does, with RRSampler and with the per-coin
// reference, and requires equal sets in equal order and equal costs. Every
// tenth set uses a Mersenne Twister stream, which refills the coin block
// through Uint64 rather than Fill.
func TestRRSamplerMatchesPerCoinLoop(t *testing.T) {
	const sets = 10_000
	for name, ig := range samplerCases(t) {
		t.Run(name, func(t *testing.T) {
			s := NewRRSampler(ig)
			ref := &perCoinRRSampler{g: ig, visited: make([]uint32, ig.NumVertices())}
			xo, mt := rng.NewSplitter(rng.Xoshiro, 41), rng.NewSplitter(rng.MersenneTwister, 41)
			var got, want Cost
			large := 0
			for i := range sets {
				split := xo
				if i%10 == 0 {
					split = mt
				}
				src, refSrc := split.Stream(uint64(i)), split.Stream(uint64(i))
				gotSet := s.Sample(src, src, &got)
				target := graph.VertexID(refSrc.Intn(ig.NumVertices()))
				wantSet := ref.SampleFor(target, refSrc, &want)
				if !slices.Equal(gotSet, wantSet) {
					t.Fatalf("set %d: got %v, want %v", i, gotSet, wantSet)
				}
				if got != want {
					t.Fatalf("set %d: cost %+v, want %+v", i, got, want)
				}
				if len(wantSet) > 64 {
					large++
				}
			}
			t.Logf("%d sets, %d with more than 64 vertices, cost %+v", sets, large, want)
		})
	}
}

// BenchmarkRRSampler draws RR sets, one stream per set as the sketch builder
// derives them, on the two layerbench workload shapes and on sets that flip
// few coins: ic4k is BA n=4,000, m=8 under uc0.1 (dense sets), ic100k is BA
// n=10^5, m=4 under iwc (sparse sets), karate-iwc and karate-tv are Karate
// under iwc and trivalency (about 20 and 6 coins per set), and lt4k and
// lt-karate are LT reverse paths under iwc. One op is one set; sets/s and
// traversal/set are reported beside ns/op.
func BenchmarkRRSampler(b *testing.B) {
	shapes := []struct {
		name  string
		graph func(testing.TB) *graph.Graph
		prob  workload.Model
		model Model
	}{
		{"ic4k", func(t testing.TB) *graph.Graph { return baGraph(t, 4_000, 8) }, workload.UC01, IC},
		{"ic100k", func(t testing.TB) *graph.Graph { return baGraph(t, 100_000, 4) }, workload.IWC, IC},
		{"karate-iwc", func(testing.TB) *graph.Graph { return data.Karate() }, workload.IWC, IC},
		{"karate-tv", func(testing.TB) *graph.Graph { return data.Karate() }, workload.Trivalency, IC},
		{"lt4k", func(t testing.TB) *graph.Graph { return baGraph(t, 4_000, 8) }, workload.IWC, LT},
		{"lt-karate", func(testing.TB) *graph.Graph { return data.Karate() }, workload.IWC, LT},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			ig, err := workload.Assign(sh.graph(b), sh.prob, rng.NewXoshiro(5))
			if err != nil {
				b.Fatal(err)
			}
			s := NewReverseSampler(ig, sh.model)
			split := rng.NewSplitter(rng.Xoshiro, 7)
			var cost Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := split.Stream(uint64(i))
				s.Sample(src, src, &cost)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sets/s")
			b.ReportMetric(float64(cost.Traversal())/float64(b.N), "traversal/set")
		})
	}
}
