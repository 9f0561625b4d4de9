package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestMT19937Reproducible(t *testing.T) {
	a := NewMT19937(42)
	b := NewMT19937(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators with equal seeds diverged: %d vs %d", i, got, want)
		}
	}
}

func TestMT19937KnownValues(t *testing.T) {
	// Reference outputs of MT19937-64 seeded with 5489 (the canonical default
	// seed of the reference implementation).
	m := NewMT19937(5489)
	want := []uint64{
		14514284786278117030,
		4620546740167642908,
		13109570281517897720,
		17462938647148434322,
		355488278567739596,
	}
	for i, w := range want {
		if got := m.Uint64(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestXoshiroReproducible(t *testing.T) {
	a := NewXoshiro(7)
	b := NewXoshiro(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("step %d: xoshiro with equal seeds diverged", i)
		}
	}
}

// TestXoshiroFillMatchesUint64 pins Fill to the Uint64 sequence across block
// lengths, including the empty block and blocks that do not divide the run.
func TestXoshiroFillMatchesUint64(t *testing.T) {
	a, b := NewXoshiro(9), NewXoshiro(9)
	for _, n := range []int{0, 1, 7, 64, 3, 200} {
		block := make([]uint64, n)
		a.Fill(block)
		for i, got := range block {
			if want := b.Uint64(); got != want {
				t.Fatalf("block of %d, value %d: Fill gave %d, Uint64 %d", n, i, got, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fill left the generator at a different state than Uint64")
	}
}

// TestCoinThresholdExact checks the identity the IC RR sampler's coin test
// rests on: for a probability p and a 53-bit value k, Below(k<<11,
// Threshold(p)) is 1 exactly when the Float64 of k<<11 is below p. It checks
// every k within two of the threshold, for certain, dyadic (p·2^53
// integral), decimal and repeating probabilities, the extremes of float64,
// and 1/d for every in-degree d a generated workload graph can have.
func TestCoinThresholdExact(t *testing.T) {
	probs := []float64{
		1, 0.5, 0.1, 1.0 / 3, 0.375, 0.01, 0.001,
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0),
		1.0 / (1 << 53), 1.5 / (1 << 53), math.Nextafter(1.0/(1<<53), 1),
	}
	for d := 1; d <= 1<<17; d++ {
		probs = append(probs, 1/float64(d))
	}
	for _, p := range probs {
		thr := Threshold(p)
		for k := max(thr, 2) - 2; k <= thr+1 && k < 1<<53; k++ {
			if got, want := Below(k<<11, thr) == 1, float64FromUint64(k<<11) < p; got != want {
				t.Fatalf("p=%v, k=%d: Below(k<<11, Threshold(p)=%d) is %v, Float64 < p is %v", p, k, thr, got, want)
			}
		}
	}
	if Threshold(1) != 1<<53 || Threshold(math.SmallestNonzeroFloat64) != 1 {
		t.Errorf("Threshold(1) = %d, Threshold(min float64) = %d; want 2^53 and 1",
			Threshold(1), Threshold(math.SmallestNonzeroFloat64))
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	for _, alg := range []Algorithm{MersenneTwister, Xoshiro} {
		a := New(alg, 1)
		b := New(alg, 2)
		same := 0
		for i := 0; i < 100; i++ {
			if a.Uint64() == b.Uint64() {
				same++
			}
		}
		if same > 2 {
			t.Errorf("%v: %d/100 identical outputs for different seeds", alg, same)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	for _, alg := range []Algorithm{MersenneTwister, Xoshiro} {
		s := New(alg, 99)
		for i := 0; i < 10000; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				t.Fatalf("%v: Float64 out of range: %v", alg, f)
			}
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	for _, alg := range []Algorithm{MersenneTwister, Xoshiro} {
		s := New(alg, 123)
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Float64()
		}
		mean := sum / n
		if math.Abs(mean-0.5) > 0.01 {
			t.Errorf("%v: mean of uniforms = %v, want approx 0.5", alg, mean)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := NewXoshiro(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(10): value %d drawn %d times of 100000, expected near 10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewXoshiro(1).Intn(0)
}

func TestSplitStreamsIndependent(t *testing.T) {
	a := Split(Xoshiro, 42, 0)
	b := Split(Xoshiro, 42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams share %d/1000 outputs", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := Split(MersenneTwister, 11, 3)
	b := Split(MersenneTwister, 11, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split with equal parameters is not reproducible")
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if MersenneTwister.String() != "mt19937-64" {
		t.Errorf("MersenneTwister.String() = %q", MersenneTwister.String())
	}
	if Xoshiro.String() != "xoshiro256**" {
		t.Errorf("Xoshiro.String() = %q", Xoshiro.String())
	}
	if Algorithm(99).String() != "unknown" {
		t.Errorf("unknown algorithm String() = %q", Algorithm(99).String())
	}
}

// TestIntnGolden pins the first 1,000 Intn values of both generators at
// bounds from 1 to 2^31−1, recorded from the hand-written 128-bit multiply
// that bits.Mul64 replaced. RR-set targets are drawn through Intn, so a
// changed stream would change every sketch. Each row holds the first three
// values and the SHA-256 of all 1,000 as little-endian uint64s.
func TestIntnGolden(t *testing.T) {
	sources := map[string]func() Source{
		"xoshiro": func() Source { return NewXoshiro(42) },
		"mt19937": func() Source { return NewMT19937(42) },
	}
	for _, g := range []struct {
		source string
		n      int
		first  [3]int
		sha256 string
	}{
		{"xoshiro", 1, [3]int{0, 0, 0}, "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"},
		{"xoshiro", 3, [3]int{1, 2, 1}, "12e8dbde09cd7170513f49b9d7bff83d41a19bfa98e04a966474bc9b8c05a002"},
		{"xoshiro", 34, [3]int{12, 29, 21}, "4c9569acca0086ba0fceff18244b47138f5708511eb083aff07e39eb87c495cb"},
		{"xoshiro", 100000, [3]int{36147, 88090, 62284}, "33888063957d344a904d80c87e6d50ac1ae02fb6dc1fbdebff085422cd72ec8b"},
		{"xoshiro", 1<<31 - 1, [3]int{776253680, 1891726451, 1337559473}, "23919f4c524e96070a41a13f1a7f826e55ee48bb1b01050399268f1935cefa7d"},
		{"mt19937", 1, [3]int{0, 0, 0}, "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"},
		{"mt19937", 3, [3]int{2, 1, 2}, "20368f9df92dc193020d5746e646c84429afa3907002cc03cc24b2740ccb3f8c"},
		{"mt19937", 34, [3]int{25, 21, 25}, "776700418a719cc9cd221fadaaeff38bb8ea746efb167b5911f29370512deddc"},
		{"mt19937", 100000, [3]int{75515, 63903, 75214}, "f48f5093ae4385ed908cf1ce3d8bdaada0c11811d0eac41df3cb41f7a9d49aac"},
		{"mt19937", 1<<31 - 1, [3]int{1621684157, 1372309468, 1615219518}, "fa532800da2ca378eb46daad03c1bb05e00cf787300808563e760d53d5ad0820"},
	} {
		src := sources[g.source]()
		h := sha256.New()
		var first [3]int
		for i := range 1000 {
			v := src.Intn(g.n)
			if i < len(first) {
				first[i] = v
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		}
		if sum := hex.EncodeToString(h.Sum(nil)); first != g.first || sum != g.sha256 {
			t.Errorf("%s Intn(%d): first values %v, sha256 %s; want %v, %s", g.source, g.n, first, sum, g.first, g.sha256)
		}
	}
}

func TestIntnFromUint64Bounds(t *testing.T) {
	f := func(u uint64, n uint16) bool {
		nn := int(n%1000) + 1
		v := intnFromUint64(u, nn)
		return v >= 0 && v < nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewXoshiro(2024)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := NormFloat64(s)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want approx 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want approx 1", variance)
	}
}

func BenchmarkMT19937Uint64(b *testing.B) {
	s := NewMT19937(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	s := NewXoshiro(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func TestSplitterMatchesSplit(t *testing.T) {
	sp := NewSplitter(Xoshiro, 42)
	for _, i := range []uint64{0, 1, 2, 1000} {
		a := sp.Stream(i)
		b := Split(Xoshiro, 42, i)
		for j := 0; j < 16; j++ {
			if av, bv := a.Uint64(), b.Uint64(); av != bv {
				t.Fatalf("stream %d draw %d: Splitter %d != Split %d", i, j, av, bv)
			}
		}
	}
}

func TestSplitterFromAdvancesParentOnce(t *testing.T) {
	parent := NewXoshiro(7)
	want := NewXoshiro(7)
	_ = SplitterFrom(Xoshiro, parent)
	want.Uint64()
	if parent.Uint64() != want.Uint64() {
		t.Fatal("SplitterFrom must consume exactly one Uint64 from the parent")
	}
}

func TestSplitterConcurrentUse(t *testing.T) {
	sp := NewSplitter(Xoshiro, 99)
	ref := make([]uint64, 64)
	for i := range ref {
		ref[i] = sp.Stream(uint64(i)).Uint64()
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for i := range ref {
				if sp.Stream(uint64(i)).Uint64() != ref[i] {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("concurrent Stream draws diverged from serial reference")
		}
	}
}
