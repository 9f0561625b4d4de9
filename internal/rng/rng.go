// Package rng provides the pseudorandom number generators used throughout
// imdist.
//
// The paper (Section 4.1) draws all random numbers from the Mersenne Twister;
// this package provides a faithful MT19937 implementation together with the
// much faster xoshiro256** generator and a splitmix64 seeder. Every algorithm
// run receives its own Source so that trials are independent and experiments
// are reproducible from a single master seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is the minimal interface the influence-maximization code needs from
// a pseudorandom number generator. Implementations are not safe for
// concurrent use; clone one Source per goroutine with New or Split.
type Source interface {
	// Uint64 returns a uniformly distributed 64-bit value.
	Uint64() uint64
	// Float64 returns a uniformly distributed value in [0, 1).
	Float64() float64
	// Intn returns a uniformly distributed value in [0, n). It panics if
	// n <= 0.
	Intn(n int) int
	// Seed reinitializes the generator state from the given seed.
	Seed(seed uint64)
}

// Algorithm identifies a concrete generator implementation.
type Algorithm int

const (
	// MersenneTwister selects the 64-bit Mersenne Twister (MT19937-64),
	// matching the generator family used in the paper's C++ implementation.
	MersenneTwister Algorithm = iota
	// Xoshiro selects xoshiro256**, a small, fast, high-quality generator
	// suitable for the bulk sampling done by the estimators.
	Xoshiro
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case MersenneTwister:
		return "mt19937-64"
	case Xoshiro:
		return "xoshiro256**"
	default:
		return "unknown"
	}
}

// New returns a freshly seeded Source of the requested algorithm.
func New(a Algorithm, seed uint64) Source {
	switch a {
	case MersenneTwister:
		return NewMT19937(seed)
	default:
		return NewXoshiro(seed)
	}
}

// Split derives an independent child Source from a parent seed and a stream
// index. It is the mechanism experiments use to give every trial its own
// generator while remaining reproducible from one master seed.
func Split(a Algorithm, masterSeed uint64, stream uint64) Source {
	// Mix the stream index into the seed with splitmix64 so that adjacent
	// streams do not produce correlated sequences.
	s := splitmix64(masterSeed ^ (0x9e3779b97f4a7c15 * (stream + 1)))
	return New(a, s)
}

// Splitter deterministically derives an unbounded family of independent child
// Sources from a single base seed. It is the splittable-seed mechanism behind
// the parallel sampling engines: the base is drawn once (sequentially) from a
// parent Source, after which Stream(i) can be called for any index from any
// goroutine — a Splitter is immutable and therefore safe for concurrent use,
// unlike the Sources it produces.
type Splitter struct {
	algorithm Algorithm
	base      uint64
}

// NewSplitter returns a Splitter producing children of the given algorithm
// from the given base seed.
func NewSplitter(a Algorithm, base uint64) Splitter {
	return Splitter{algorithm: a, base: base}
}

// SplitterFrom draws a base seed from src (advancing it by one Uint64) and
// returns the Splitter rooted at it. This is how a sampling engine converts
// its single configured Source into per-sample streams while staying
// reproducible: the one sequential draw pins the whole family.
func SplitterFrom(a Algorithm, src Source) Splitter {
	return NewSplitter(a, src.Uint64())
}

// Stream returns the i-th child Source. Equal (base, i) pairs always yield
// identical streams; distinct indices yield independent ones.
func (s Splitter) Stream(i uint64) Source {
	return Split(s.algorithm, s.base, i)
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used both as a seeder and as a mixer for stream derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64FromUint64 converts a 64-bit random value to a float64 in [0, 1)
// using the top 53 bits, which yields a uniform dyadic rational.
func float64FromUint64(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// Threshold returns the integer form of the coin test Float64() < p: for
// every 64-bit value u, Below(u, Threshold(p)) is 1 exactly when
// float64FromUint64(u) < p. It is ceil(p·2^53) clamped to [0, 2^53]; the test
// is exact because scaling by a power of two rounds nothing in float64, and
// an integer is below a real exactly when it is below the real's ceiling.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below returns 1 when the coin of the 64-bit value u comes up against thr, a
// Threshold, and 0 otherwise. It computes the bit without a branch.
func Below(u, thr uint64) uint64 {
	return ((u >> 11) - thr) >> 63
}

// intnFromUint64 maps a random 64-bit value to [0, n) with negligible bias
// for the n used here (n < 2^32 in all workloads).
func intnFromUint64(u uint64, n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift reduction.
	hi, _ := bits.Mul64(u, uint64(n))
	return int(hi)
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Box–Muller transform on the given source. It is a
// helper for generators and tests, not part of the hot path.
func NormFloat64(s Source) float64 {
	for {
		u1 := s.Float64()
		u2 := s.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}
