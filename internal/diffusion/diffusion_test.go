package diffusion

import (
	"math"
	"testing"

	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// lineGraph returns the influence graph 0 -> 1 -> 2 with probability p on
// every edge.
func lineGraph(t *testing.T, p float64) *graph.InfluenceGraph {
	t.Helper()
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	ig, err := graph.NewInfluenceGraph(b.Build(), func(_, _ graph.VertexID) float64 { return p })
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

// completeBipartiteSourceGraph returns a star: vertex 0 points to vertices
// 1..n-1 with probability p.
func starGraph(t *testing.T, n int, p float64) *graph.InfluenceGraph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	ig, err := graph.NewInfluenceGraph(b.Build(), func(_, _ graph.VertexID) float64 { return p })
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func TestSimulateCertainPropagation(t *testing.T) {
	ig := lineGraph(t, 1.0)
	sim := NewSimulator(ig)
	src := rng.NewXoshiro(1)
	var cost Cost
	got := sim.Run([]graph.VertexID{0}, src, &cost)
	if got != 3 {
		t.Errorf("activation with p=1 from 0 = %d, want 3", got)
	}
	// Traversal: all three vertices examined, both edges examined.
	if cost.VerticesExamined != 3 || cost.EdgesExamined != 2 {
		t.Errorf("cost = %+v, want 3 vertices and 2 edges", cost)
	}
}

func TestSimulateSeedOnlyWhenImpossible(t *testing.T) {
	// Probability must be in (0,1]; use a tiny probability and a seed whose
	// first draws exceed it to show the seed is always counted.
	ig := lineGraph(t, 1e-12)
	sim := NewSimulator(ig)
	src := rng.NewXoshiro(3)
	if got := sim.Run([]graph.VertexID{2}, src, nil); got != 1 {
		t.Errorf("activation from sink = %d, want 1", got)
	}
}

func TestSimulateDuplicateSeeds(t *testing.T) {
	ig := lineGraph(t, 1.0)
	sim := NewSimulator(ig)
	got := sim.Run([]graph.VertexID{0, 0, 0}, rng.NewXoshiro(1), nil)
	if got != 3 {
		t.Errorf("duplicate seeds changed the count: %d, want 3", got)
	}
}

func TestEstimateInfluenceStarUnbiased(t *testing.T) {
	// Star with 10 leaves and p = 0.3: Inf({0}) = 1 + 10*0.3 = 4.
	ig := starGraph(t, 11, 0.3)
	sim := NewSimulator(ig)
	src := rng.NewXoshiro(7)
	got := sim.EstimateInfluence([]graph.VertexID{0}, 20000, src, nil)
	if math.Abs(got-4.0) > 0.1 {
		t.Errorf("estimated influence = %v, want approx 4.0", got)
	}
}

func TestEstimateInfluenceLine(t *testing.T) {
	// Line 0->1->2 with p=0.5: Inf({0}) = 1 + 0.5 + 0.25 = 1.75.
	ig := lineGraph(t, 0.5)
	sim := NewSimulator(ig)
	got := sim.EstimateInfluence([]graph.VertexID{0}, 40000, rng.NewXoshiro(11), nil)
	if math.Abs(got-1.75) > 0.05 {
		t.Errorf("estimated influence = %v, want approx 1.75", got)
	}
	if sim.EstimateInfluence([]graph.VertexID{0}, 0, rng.NewXoshiro(1), nil) != 0 {
		t.Error("zero simulations should estimate 0")
	}
}

func TestSimulatorEpochWraparound(t *testing.T) {
	ig := lineGraph(t, 1.0)
	sim := NewSimulator(ig)
	sim.epoch = ^uint32(0) - 1 // two steps from wraparound
	src := rng.NewXoshiro(5)
	for i := 0; i < 4; i++ {
		if got := sim.Run([]graph.VertexID{0}, src, nil); got != 3 {
			t.Fatalf("run %d after near-wraparound = %d, want 3", i, got)
		}
	}
}

func TestSampleSnapshotExtremes(t *testing.T) {
	igAll := lineGraph(t, 1.0)
	snap := SampleSnapshot(igAll, rng.NewXoshiro(1), nil)
	if snap.NumLiveEdges() != 2 {
		t.Errorf("p=1 snapshot has %d live edges, want 2", snap.NumLiveEdges())
	}
	igFew := lineGraph(t, 1e-12)
	snap = SampleSnapshot(igFew, rng.NewXoshiro(1), nil)
	if snap.NumLiveEdges() != 0 {
		t.Errorf("p~=0 snapshot has %d live edges, want 0", snap.NumLiveEdges())
	}
}

func TestSampleSnapshotLiveEdgeFraction(t *testing.T) {
	// On Karate-like uniform graphs the expected number of live edges is
	// p * m; check the empirical average over many snapshots.
	b := graph.NewBuilder(50)
	for u := 0; u < 50; u++ {
		for d := 1; d <= 4; d++ {
			if err := b.AddEdge(graph.VertexID(u), graph.VertexID((u+d)%50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ig, err := workload.Assign(b.Build(), workload.UC01, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewXoshiro(9)
	total := 0
	const reps = 2000
	for i := 0; i < reps; i++ {
		total += SampleSnapshot(ig, src, nil).NumLiveEdges()
	}
	avg := float64(total) / reps
	want := 0.1 * float64(ig.NumEdges())
	if math.Abs(avg-want) > want*0.1 {
		t.Errorf("average live edges = %v, want approx %v", avg, want)
	}
}

func TestSnapshotSampleSizeAccounting(t *testing.T) {
	ig := lineGraph(t, 1.0)
	var cost Cost
	_ = SampleSnapshot(ig, rng.NewXoshiro(1), &cost)
	if cost.SampleVertices != 3 {
		t.Errorf("SampleVertices = %d, want 3", cost.SampleVertices)
	}
	if cost.SampleEdges != 2 {
		t.Errorf("SampleEdges = %d, want 2 (all live at p=1)", cost.SampleEdges)
	}
	if cost.VerticesExamined != 0 || cost.EdgesExamined != 0 {
		t.Errorf("snapshot generation should not charge traversal: %+v", cost)
	}
}

func TestSnapshotReachable(t *testing.T) {
	ig := lineGraph(t, 1.0)
	snap := SampleSnapshot(ig, rng.NewXoshiro(1), nil)
	visited := make([]uint32, 3)
	queue := make([]graph.VertexID, 0, 3)
	var cost Cost
	got := snap.Reachable([]graph.VertexID{0}, nil, nil, visited, 1, queue, &cost)
	if got != 3 {
		t.Errorf("reachable from 0 = %d, want 3", got)
	}
	if cost.VerticesExamined != 3 || cost.EdgesExamined != 2 {
		t.Errorf("reachability cost = %+v", cost)
	}
}

func TestSnapshotReachableBlocked(t *testing.T) {
	ig := lineGraph(t, 1.0)
	snap := SampleSnapshot(ig, rng.NewXoshiro(1), nil)
	visited := make([]uint32, 3)
	queue := make([]graph.VertexID, 0, 3)
	blocked := func(v graph.VertexID) bool { return v == 1 }
	got := snap.Reachable([]graph.VertexID{0}, blocked, nil, visited, 1, queue, nil)
	if got != 1 {
		t.Errorf("reachable with vertex 1 blocked = %d, want 1", got)
	}
}

func TestSnapshotReachableVisitCallback(t *testing.T) {
	ig := lineGraph(t, 1.0)
	snap := SampleSnapshot(ig, rng.NewXoshiro(1), nil)
	visited := make([]uint32, 3)
	queue := make([]graph.VertexID, 0, 3)
	var seen []graph.VertexID
	snap.Reachable([]graph.VertexID{0}, nil, func(v graph.VertexID) { seen = append(seen, v) },
		visited, 1, queue, nil)
	if len(seen) != 3 {
		t.Errorf("visit callback saw %v, want all three vertices", seen)
	}
}

func TestRRSetCertainLine(t *testing.T) {
	// With p=1 the RR set of any target in 0->1->2 is the set of its
	// ancestors plus itself.
	ig := lineGraph(t, 1.0)
	sampler := NewRRSampler(ig)
	src := rng.NewXoshiro(1)
	set := sampler.SampleFor(2, src, nil)
	if len(set) != 3 {
		t.Errorf("RR set of vertex 2 with p=1 = %v, want all 3 vertices", set)
	}
	set = sampler.SampleFor(0, src, nil)
	if len(set) != 1 || set[0] != 0 {
		t.Errorf("RR set of source vertex = %v, want [0]", set)
	}
}

func TestRRSetMembershipProbabilityMatchesInfluence(t *testing.T) {
	// Observation 3.2 of Borgs et al.: Pr[v in R] = Inf(v)/n. For the star
	// graph with p=0.3 and 11 vertices, Inf(0) = 4, so vertex 0 should appear
	// in an RR set with probability 4/11.
	ig := starGraph(t, 11, 0.3)
	sampler := NewRRSampler(ig)
	targetSrc := rng.NewXoshiro(21)
	edgeSrc := rng.NewXoshiro(22)
	const reps = 60000
	hits := 0
	for i := 0; i < reps; i++ {
		for _, v := range sampler.Sample(targetSrc, edgeSrc, nil) {
			if v == 0 {
				hits++
				break
			}
		}
	}
	got := float64(hits) / reps
	want := 4.0 / 11.0
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Pr[0 in RR] = %v, want approx %v", got, want)
	}
}

func TestRRSetCostAccounting(t *testing.T) {
	ig := lineGraph(t, 1.0)
	sampler := NewRRSampler(ig)
	var cost Cost
	set := sampler.SampleFor(2, rng.NewXoshiro(1), &cost)
	if cost.SampleVertices != int64(len(set)) {
		t.Errorf("SampleVertices = %d, want %d", cost.SampleVertices, len(set))
	}
	// Weight w(R) = sum of in-degrees of members = 0 + 1 + 1 = 2 edges examined.
	if cost.EdgesExamined != 2 {
		t.Errorf("EdgesExamined = %d, want 2", cost.EdgesExamined)
	}
	if cost.VerticesExamined != 3 {
		t.Errorf("VerticesExamined = %d, want 3", cost.VerticesExamined)
	}
}

func TestRRSamplerEmptyGraph(t *testing.T) {
	ig, err := graph.NewInfluenceGraph(graph.NewBuilder(0).Build(), func(_, _ graph.VertexID) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewRRSampler(ig)
	if set := sampler.Sample(rng.NewXoshiro(1), rng.NewXoshiro(2), nil); set != nil {
		t.Errorf("RR set on empty graph = %v, want nil", set)
	}
}

func TestRRSamplerEpochWraparound(t *testing.T) {
	ig := lineGraph(t, 1.0)
	sampler := NewRRSampler(ig)
	sampler.epoch = ^uint32(0) - 1
	src := rng.NewXoshiro(5)
	for i := 0; i < 4; i++ {
		if set := sampler.SampleFor(2, src, nil); len(set) != 3 {
			t.Fatalf("RR set after near-wraparound = %v", set)
		}
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{VerticesExamined: 1, EdgesExamined: 2, SampleVertices: 3, SampleEdges: 4}
	b := Cost{VerticesExamined: 10, EdgesExamined: 20, SampleVertices: 30, SampleEdges: 40}
	a.Add(b)
	if a.VerticesExamined != 11 || a.EdgesExamined != 22 || a.SampleVertices != 33 || a.SampleEdges != 44 {
		t.Errorf("Add result = %+v", a)
	}
	if a.Traversal() != 33 {
		t.Errorf("Traversal = %d, want 33", a.Traversal())
	}
	if a.SampleSize() != 77 {
		t.Errorf("SampleSize = %d, want 77", a.SampleSize())
	}
	a.Reset()
	if a != (Cost{}) {
		t.Errorf("Reset left %+v", a)
	}
}

func BenchmarkSimulateKarateLike(b *testing.B) {
	builder := graph.NewBuilder(200)
	for u := 0; u < 200; u++ {
		for d := 1; d <= 5; d++ {
			_ = builder.AddEdge(graph.VertexID(u), graph.VertexID((u+d)%200))
		}
	}
	ig, err := workload.Assign(builder.Build(), workload.UC01, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim := NewSimulator(ig)
	src := rng.NewXoshiro(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run([]graph.VertexID{0}, src, nil)
	}
}
