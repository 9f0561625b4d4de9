package sketchio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// # Checkpoint format (version 2, little endian)
//
// A checkpoint persists the state of an incremental build
// (core.SketchBuilder) so it can resume after a crash or restart. Unlike a
// sketch — whose header bakes in the final RR-set count and whose member
// index can only be written once the build is done — a checkpoint is
// append-only and set-major: a fixed header followed by any number of
// self-contained segments of RR-set records, each carrying its own CRC-32C:
//
//	header (40 bytes):
//	offset  size  field
//	0       4     magic "IMSK"
//	4       2     format version (2)
//	6       1     diffusion model (0 = IC, 1 = LT)
//	7       1     reserved (0)
//	8       8     build seed
//	16      8     number of vertices n
//	24      8     influence-graph fingerprint (FNV-1a of edges + probabilities)
//	32      8     reserved (0)
//
//	segment, repeated until EOF:
//	0       4     segment magic "SEGM"
//	4       4     reserved (0)
//	8       8     RR-set count of this segment
//	16      8     payload length in bytes
//	24      ...   records: uint32 count, then count × int32 vertex ids
//	24+len  4     CRC-32C of the segment header + payload
//
// Because a builder's RR-set sequence is pinned by (seed, index), a
// checkpoint only has to persist a prefix of that sequence: a torn final
// segment (crash mid-append) is simply truncated away on the next
// OpenSpillStore and its sets are regenerated — deterministically identical —
// by the resumed build. SpillStore is the only code that appends to a
// checkpoint file; WriteCheckpoint streams a one-segment snapshot to any
// writer. Finished sketches are written as version 3 files (see the package
// documentation).

// CheckpointVersion is the on-disk version of the append-only checkpoint
// format.
const CheckpointVersion = 2

const (
	segMagic     = "SEGM"
	segHeaderLen = 24
)

// ErrCheckpointMeta reports a checkpoint whose recorded build identity
// (model, seed, vertex count) does not match the build it was offered to.
var ErrCheckpointMeta = errors.New("sketchio: checkpoint metadata mismatch")

// CheckpointMeta is the build identity recorded in a checkpoint header. Two
// builds with equal metadata generate identical RR-set sequences, which is
// what makes resuming from a prefix sound.
type CheckpointMeta struct {
	Model diffusion.Model
	Seed  uint64
	N     int
	// GraphHash fingerprints the influence graph — structure and edge
	// probabilities (GraphFingerprint). The RR-set sequence depends on the
	// whole graph, not just its vertex count, so resuming against a graph
	// with the same n but different edges or a different edge-probability
	// model would silently splice two unrelated sequences; the fingerprint
	// turns that into ErrCheckpointMeta.
	GraphHash uint64
}

// GraphFingerprint digests an influence graph's structure and edge
// probabilities into the 64-bit FNV-1a value recorded in checkpoint headers:
// vertex count, then every (source, target, probability-bits) triple in
// adjacency order. One linear pass, called once per build or resume.
func GraphFingerprint(ig *graph.InfluenceGraph) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(ig.NumVertices()))
	for v := 0; v < ig.NumVertices(); v++ {
		neigh := ig.OutNeighbors(graph.VertexID(v))
		probs := ig.OutProbabilities(graph.VertexID(v))
		mix(uint64(v))
		for i, u := range neigh {
			mix(uint64(u))
			mix(math.Float64bits(probs[i]))
		}
	}
	return h
}

// checkpointMetaFor derives the full checkpoint identity of a build.
func checkpointMetaFor(ig *graph.InfluenceGraph, model diffusion.Model, seed uint64) CheckpointMeta {
	return CheckpointMeta{Model: model, Seed: seed, N: ig.NumVertices(), GraphHash: GraphFingerprint(ig)}
}

func (m CheckpointMeta) validate() error {
	if m.N < 1 || m.N > math.MaxInt32 {
		return fmt.Errorf("sketchio: checkpoint vertex count %d outside [1, 2^31)", m.N)
	}
	switch m.Model {
	case diffusion.IC, diffusion.LT:
		return nil
	default:
		return fmt.Errorf("sketchio: unknown diffusion model %d", m.Model)
	}
}

func encodeCheckpointHeader(m CheckpointMeta) []byte {
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], CheckpointVersion)
	hdr[6] = byte(m.Model)
	binary.LittleEndian.PutUint64(hdr[8:], m.Seed)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.N))
	binary.LittleEndian.PutUint64(hdr[24:], m.GraphHash)
	return hdr
}

func parseCheckpointHeader(hdr []byte) (CheckpointMeta, error) {
	var m CheckpointMeta
	if string(hdr[:4]) != magic {
		return m, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != CheckpointVersion {
		return m, fmt.Errorf("%w: got %d, checkpoints are version %d", ErrVersion, v, CheckpointVersion)
	}
	switch diffusion.Model(hdr[6]) {
	case diffusion.IC, diffusion.LT:
		m.Model = diffusion.Model(hdr[6])
	default:
		return m, fmt.Errorf("%w: unknown diffusion model %d", ErrCorrupt, hdr[6])
	}
	if hdr[7] != 0 {
		return m, fmt.Errorf("%w: nonzero reserved byte", ErrCorrupt)
	}
	m.Seed = binary.LittleEndian.Uint64(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[16:])
	if n < 1 || n > math.MaxInt32 {
		return m, fmt.Errorf("%w: vertex count %d outside [1, 2^31)", ErrCorrupt, n)
	}
	m.GraphHash = binary.LittleEndian.Uint64(hdr[24:])
	for _, b := range hdr[32:headerLen] {
		if b != 0 {
			return m, fmt.Errorf("%w: nonzero reserved checkpoint header bytes", ErrCorrupt)
		}
	}
	m.N = int(n)
	return m, nil
}

// segmentMeta is a decoded segment header.
type segmentMeta struct {
	count      int
	payloadLen uint64
}

func parseSegmentHeader(hdr []byte, totalSoFar int) (segmentMeta, error) {
	var s segmentMeta
	if string(hdr[:4]) != segMagic {
		return s, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != 0 {
		return s, fmt.Errorf("%w: nonzero reserved segment bytes", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	payloadLen := binary.LittleEndian.Uint64(hdr[16:])
	if count < 1 || count > math.MaxInt32 || uint64(totalSoFar)+count > math.MaxInt32 {
		return s, fmt.Errorf("%w: segment RR-set count %d impossible", ErrCorrupt, count)
	}
	if payloadLen < 4*count || payloadLen > 1<<56 {
		return s, fmt.Errorf("%w: segment payload length %d impossible for %d RR sets", ErrCorrupt, payloadLen, count)
	}
	s.count = int(count)
	s.payloadLen = payloadLen
	return s, nil
}

// readSegment decodes one segment from br, validating its CRC and every
// vertex id against [0, n), and hands its sets to fn through readRecords (fn
// may be nil to validate only). It returns io.EOF at a clean end-of-stream
// (zero bytes where a segment would start); every other failure — including
// a partially written segment — is an error wrapping ErrCorrupt. fn sees the
// sets as they stream past, before the trailing CRC is checked, so a caller
// that keeps them must drop the segment's sets when readSegment fails. count
// is the segment's RR-set count, size its total encoded size, stored the
// verified CRC-32C.
func readSegment(br *bufio.Reader, n, totalSoFar int, fn func(i int, set []graph.VertexID) error) (count int, size int64, stored uint32, err error) {
	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, 0, io.EOF // clean boundary
		}
		return 0, 0, 0, readErr(err)
	}
	s, err := parseSegmentHeader(hdr, totalSoFar)
	if err != nil {
		return 0, 0, 0, err
	}
	crc := crc32.New(castagnoliTab)
	crc.Write(hdr)
	if err := readRecords(io.TeeReader(br, crc), n, s.count, s.payloadLen, fn); err != nil {
		return 0, 0, 0, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, 0, 0, readErr(err)
	}
	stored = binary.LittleEndian.Uint32(tail[:])
	if stored != crc.Sum32() {
		return 0, 0, 0, ErrChecksum
	}
	return s.count, segHeaderLen + int64(s.payloadLen) + 4, stored, nil
}

// writeSegment appends one CRC-framed segment holding sets to w.
func writeSegment(w io.Writer, sets [][]graph.VertexID) error {
	return writeSegmentFunc(w, len(sets), recordsLen(sets), eachSet(sets))
}

// writeSegmentFunc appends one CRC-framed segment of count records, streamed
// in order by each, to w. payload must be the exact encoded size of the
// records — callers that track it incrementally (the builder's store stats)
// avoid a sizing pass over data that may live on disk.
func writeSegmentFunc(w io.Writer, count int, payload uint64, each setIter) error {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(count))
	binary.LittleEndian.PutUint64(hdr[16:], payload)
	crc := crc32.New(castagnoliTab)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := writeRecords(bw, each); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// WriteCheckpoint streams a complete snapshot checkpoint of b — header plus
// one segment holding every set generated so far — to w. For an append-only
// on-disk checkpoint that grows with the build, use BuildSpill instead.
func WriteCheckpoint(w io.Writer, b *core.SketchBuilder) error {
	if b == nil {
		return errors.New("sketchio: nil builder")
	}
	meta := checkpointMetaFor(b.Graph(), b.Model(), b.Seed())
	if _, err := w.Write(encodeCheckpointHeader(meta)); err != nil {
		return err
	}
	st := b.StoreStats()
	if st.Sets == 0 {
		return nil
	}
	// Stream straight out of the builder's store — no [][]VertexID snapshot,
	// so a disk-backed build checkpoints without materializing its sets.
	return writeSegmentFunc(w, st.Sets, uint64(st.PayloadBytes), func(fn func(int, []graph.VertexID) error) error {
		return b.Store().ForEach(0, st.Sets, fn)
	})
}

// ReadCheckpoint strictly decodes a checkpoint stream: metadata plus the
// concatenation of every segment's RR sets, decoded in one pass with the
// sets' backing storage carved from a shared arena (one large allocation per
// ~4 MiB of payload rather than one per record). Any damage — a torn final
// segment included — is an error; crash recovery by truncation is
// OpenSpillStore's job, where the file can actually be repaired.
func ReadCheckpoint(r io.Reader) (CheckpointMeta, [][]graph.VertexID, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return CheckpointMeta{}, nil, readErr(err)
	}
	meta, err := parseCheckpointHeader(hdr)
	if err != nil {
		return CheckpointMeta{}, nil, err
	}
	var sets [][]graph.VertexID
	keep := new(vertexArena).keep(&sets)
	for {
		_, _, _, err := readSegment(br, meta.N, len(sets), keep)
		if err == io.EOF {
			return meta, sets, nil
		}
		if err != nil {
			return CheckpointMeta{}, nil, err
		}
	}
}

// ResumeBuilder reconstructs an incremental builder from the checkpoint
// stream r, ready to continue generating at the next RR-set index. ig must be
// the very influence graph the checkpoint was built over — the recorded
// fingerprint covers edges and probabilities, so a resume against the same
// dataset under a different edge-probability model (or a different graph of
// the same size) is rejected with ErrCheckpointMeta instead of silently
// splicing two unrelated RR-set sequences.
func ResumeBuilder(r io.Reader, ig *graph.InfluenceGraph, workers int) (*core.SketchBuilder, error) {
	meta, sets, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if ig == nil || ig.NumVertices() != meta.N {
		return nil, fmt.Errorf("%w: checkpoint is for a %d-vertex graph", ErrCheckpointMeta, meta.N)
	}
	if hash := GraphFingerprint(ig); hash != meta.GraphHash {
		return nil, fmt.Errorf("%w: checkpoint graph fingerprint %016x, build graph %016x (different edges or edge probabilities)",
			ErrCheckpointMeta, meta.GraphHash, hash)
	}
	// ReadCheckpoint already validated every vertex id while decoding, so go
	// through the trusted store constructor: one decode pass total, no second
	// validation sweep over the materialized sets.
	return core.NewSketchBuilderFromStore(ig, meta.Model, workers, meta.Seed, core.NewMemStore(sets))
}
