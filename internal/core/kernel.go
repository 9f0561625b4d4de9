package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"imdist/internal/graph"
	"imdist/internal/parallel"
)

// Kernel names a coverage-counting implementation behind the oracle's query
// path — Influence, BatchInfluence, MarginalCoverage, GreedySeeds and
// (through them) everything the server and the facade expose. Both kernels
// compute the exact same integer coverage counts, so answers are
// byte-identical under either; they trade memory for raw scan speed:
//
//   - KernelEpoch walks the int-slice membership lists with an epoch-stamped
//     mark array — the reference implementation, O(Σ|members(seed)|) random
//     accesses per query and no extra memory.
//   - KernelBitpack scans a dense bit matrix of RR-set × vertex incidence
//     ([]uint64 words, cache-blocked to the batch engine's shard size) and
//     counts coverage with popcount. A query costs |seeds|·R/64 sequential
//     word operations, so it wins whenever membership is dense (RR sets touch
//     more than ~1/64 of the vertices on average) at the price of n·R/8 bytes
//     for the packed index, built lazily on first use.
//
// Every oracle picks its kernel at construction from its own shape (see
// decideAutoKernel). SetKernel overrides that choice for the tests and
// benchmarks that run both kernels on one RR pool.
type Kernel string

// The two coverage kernels.
const (
	KernelEpoch   Kernel = "epoch"
	KernelBitpack Kernel = "bitpack"
)

// bitpackAutoMemFactor bounds how much memory the auto policy will spend on
// the packed index relative to the int-slice adjacency it shadows. Packed
// bytes are n·R/8 and adjacency bytes are 4·Σ|set|, so the factor-of-2
// threshold is exactly membership density 1/64 — one set bit per accumulator
// word, the break-even point of the popcount scan against the epoch walk.
const bitpackAutoMemFactor = 2

// bitpackMaxBytes caps the packed index any oracle builds, whether the auto
// policy picked bitpack or SetKernel forced it. Dense regimes keep packed and
// adjacency sizes comparable, so the cap only guards genuinely enormous
// oracles from a surprise allocation.
const bitpackMaxBytes = 1 << 31

// bitMatrix is the packed RR-set × vertex incidence index behind
// KernelBitpack: bit i of row v is set iff RR set i contains vertex v, so
// the RR sets covered by a seed set are the OR of its rows and the coverage
// count is a popcount. Rows are split into blocks of shardSize RR sets laid
// out block-major — all rows of block 0, then all rows of block 1 — matching
// the batch engine's sharding, so both the full-range scan and a per-shard
// scan walk one contiguous row segment per (vertex, block) and the covered-
// word accumulator for a block (shardSize/64 words, 8 KiB at the default
// shard size) stays resident in a core's L1/L2 across the whole merge.
//
// A bitMatrix is immutable after newBitMatrix returns and safe for
// concurrent readers.
type bitMatrix struct {
	n         int
	numSets   int
	shardSize int
	// blockStart[b] is the word offset of block b's rows in words;
	// blockWords[b] is the per-row word count of block b (shardSize/64 for
	// full blocks, rounded up from the remainder for the last one). Bits past
	// numSets in the last block are never set, so popcounts need no masking.
	blockStart []int
	blockWords []int
	words      []uint64
}

// packedWords returns the []uint64 length a bitMatrix over n vertices and
// numSets RR sets occupies at the given block size.
func packedWords(n, numSets, shardSize int) int {
	total := 0
	for lo := 0; lo < numSets; lo += shardSize {
		sets := min(shardSize, numSets-lo)
		total += n * ((sets + 63) / 64)
	}
	return total
}

// PackedIndexBytes returns the memory cost in bytes of the bitpack kernel's
// packed index for an oracle over n vertices and numSets RR sets — what the
// auto policy weighs against the adjacency size, exported so operators can
// budget a sketch's memory (see docs/ARCHITECTURE.md).
func PackedIndexBytes(n, numSets int) int64 {
	return 8 * int64(packedWords(n, numSets, DefaultBatchShardSize))
}

// newBitMatrix packs a CSR member index (see Oracle.MemberIndex), already
// validated and ascending per vertex, on workers goroutines (Resolve
// semantics) with no store reads — a spill-backed oracle pays no disk traffic
// here. Each worker packs the rows of its own entry-balanced vertex chunks,
// so the words are the same at every worker count.
func newBitMatrix(n, numSets, shardSize int, offsets []uint64, entries []int32, workers int) *bitMatrix {
	numBlocks := (numSets + shardSize - 1) / shardSize
	m := &bitMatrix{
		n:          n,
		numSets:    numSets,
		shardSize:  shardSize,
		blockStart: make([]int, numBlocks+1),
		blockWords: make([]int, numBlocks),
	}
	for b := 0; b < numBlocks; b++ {
		sets := min(shardSize, numSets-b*shardSize)
		m.blockWords[b] = (sets + 63) / 64
		m.blockStart[b+1] = m.blockStart[b] + n*m.blockWords[b]
	}
	m.words = make([]uint64, m.blockStart[numBlocks])
	w, bounds := vertexChunks(offsets, workers)
	parallel.For(w, len(bounds)-1, func(_, c int) {
		for v := bounds[c]; v < bounds[c+1]; v++ {
			m.packRow(v, entries[offsets[v]:offsets[v+1]])
		}
	})
	return m
}

// packRow sets vertex v's bits from its ascending list of set ids. A block
// cursor walks along with the list instead of dividing every id by the
// shard size: ids below base+shardSize fall in block b at offset id−base.
func (m *bitMatrix) packRow(v int, list []int32) {
	shardSize := m.shardSize
	b, base := 0, 0
	row := m.row(v, 0)
	for _, id := range list {
		off := int(id) - base
		for off >= shardSize {
			b++
			base += shardSize
			off -= shardSize
			row = m.row(v, b)
		}
		row[off>>6] |= 1 << (off & 63)
	}
}

// numBlocks returns the number of shard-aligned blocks.
func (m *bitMatrix) numBlocks() int { return len(m.blockWords) }

// maxBlockWords returns the widest per-row word count across blocks — the
// accumulator size a full scan needs.
func (m *bitMatrix) maxBlockWords() int {
	if len(m.blockWords) == 0 {
		return 0
	}
	return m.blockWords[0]
}

// row returns vertex v's packed incidence words within block b.
func (m *bitMatrix) row(v, b int) []uint64 {
	w := m.blockWords[b]
	start := m.blockStart[b] + v*w
	return m.words[start : start+w]
}

// blockCoverage counts the RR sets in block b that intersect seeds, ORing
// the seed rows into acc (whose first blockWords[b] entries it clears and
// uses as scratch) and popcounting the merged words.
func (m *bitMatrix) blockCoverage(seeds []graph.VertexID, b int, acc []uint64) int64 {
	acc = acc[:m.blockWords[b]]
	clear(acc)
	for _, v := range seeds {
		row := m.row(int(v), b)
		for i, word := range row {
			acc[i] |= word
		}
	}
	var hits int64
	for _, word := range acc {
		hits += int64(bits.OnesCount64(word))
	}
	return hits
}

// coverage counts the RR sets (over the full index space) that intersect
// seeds. acc must hold at least maxBlockWords() words.
func (m *bitMatrix) coverage(seeds []graph.VertexID, acc []uint64) int64 {
	var hits int64
	for b := 0; b < m.numBlocks(); b++ {
		hits += m.blockCoverage(seeds, b, acc)
	}
	return hits
}

// cover ORs vertex v's rows into a covered bitset over m's full index space,
// whose bit i is RR set i: every block but the last is full width, so block
// b's words start at word b·maxBlockWords().
func (m *bitMatrix) cover(v int, covered []uint64) {
	for b := range m.numBlocks() {
		row := m.row(v, b)
		cov := covered[b*m.maxBlockWords():]
		cov = cov[:len(row)]
		for i, word := range row {
			cov[i] |= word
		}
	}
}

// uncovered counts the RR sets containing v that the covered bitset does not
// flag: popcount(row AND NOT covered), summed over the blocks.
func (m *bitMatrix) uncovered(v int, covered []uint64) int64 {
	var hits int64
	for b := range m.numBlocks() {
		row := m.row(v, b)
		cov := covered[b*m.maxBlockWords():]
		cov = cov[:len(row)]
		for i, word := range row {
			hits += int64(bits.OnesCount64(word &^ cov[i]))
		}
	}
	return hits
}

// kernelState is the oracle's kernel machinery: which kernel answers
// queries, and the packed index built on first use.
type kernelState struct {
	// bitpack selects KernelBitpack. Construction stores the auto policy's
	// choice; SetKernel may flip it while queries run.
	bitpack atomic.Bool

	packOnce sync.Once
	packed   *bitMatrix

	accPool sync.Pool // *[]uint64 accumulators of maxBlockWords length
}

// SetKernel overrides the kernel the auto policy picked at construction, so
// the reference-equivalence tests and imbench -compare-kernels can run both
// kernels on one RR pool. It may be called concurrently with queries: answers
// are byte-identical under either kernel, so a switch is only ever a
// performance event. Forcing KernelBitpack on an oracle whose packed index
// would exceed the cap the auto policy also respects returns an error and
// leaves the kernel unchanged.
func (o *Oracle) SetKernel(k Kernel) error {
	switch k {
	case KernelEpoch:
		o.kernels.bitpack.Store(false)
	case KernelBitpack:
		if packed := PackedIndexBytes(o.n, o.numSets); packed > bitpackMaxBytes {
			return fmt.Errorf("core: the bitpack kernel needs a %.1f GiB packed index for %d vertices × %d RR sets, over the %d GiB cap",
				float64(packed)/(1<<30), o.n, o.numSets, bitpackMaxBytes>>30)
		}
		o.kernels.bitpack.Store(true)
	default:
		return fmt.Errorf("core: unknown kernel %q (want epoch or bitpack)", k)
	}
	return nil
}

// KernelResolved returns the kernel the oracle's queries run on: the auto
// policy's choice unless SetKernel overrode it. It never forces the packed
// index to build.
func (o *Oracle) KernelResolved() Kernel {
	if o.useBitpack() {
		return KernelBitpack
	}
	return KernelEpoch
}

func (o *Oracle) useBitpack() bool { return o.kernels.bitpack.Load() }

// decideAutoKernel is the auto policy, fixed at construction from the
// oracle's shape: bitpack iff the packed index costs at most
// bitpackAutoMemFactor× the adjacency it shadows (membership density ≥ 1/64 —
// where the popcount scan wins) and fits under bitpackMaxBytes. payloadBytes
// encodes each set as 4 bytes of length plus 4 bytes per vertex, so the
// adjacency (member index) size is payloadBytes − 4·numSets.
func decideAutoKernel(n, numSets int, payloadBytes int64) Kernel {
	packed := PackedIndexBytes(n, numSets)
	adjacency := payloadBytes - 4*int64(numSets)
	if packed <= bitpackAutoMemFactor*adjacency && packed <= bitpackMaxBytes {
		return KernelBitpack
	}
	return KernelEpoch
}

// packedMatrix returns the packed index, building it on first use on all
// CPUs.
func (o *Oracle) packedMatrix() *bitMatrix {
	o.kernels.packOnce.Do(func() {
		o.kernels.packed = newBitMatrix(o.n, o.numSets, DefaultBatchShardSize, o.offsets, o.entries, -1)
	})
	return o.kernels.packed
}

// getAcc borrows a covered-word accumulator sized for m's widest block.
func (o *Oracle) getAcc(m *bitMatrix) *[]uint64 {
	if p, _ := o.kernels.accPool.Get().(*[]uint64); p != nil && len(*p) >= m.maxBlockWords() {
		return p
	}
	acc := make([]uint64, m.maxBlockWords())
	return &acc
}

func (o *Oracle) putAcc(p *[]uint64) { o.kernels.accPool.Put(p) }

// bitpackCoverage is the packed full-range coverage count behind Influence.
func (o *Oracle) bitpackCoverage(seeds []graph.VertexID) int64 {
	m := o.packedMatrix()
	acc := o.getAcc(m)
	hits := m.coverage(seeds, *acc)
	o.putAcc(acc)
	return hits
}
