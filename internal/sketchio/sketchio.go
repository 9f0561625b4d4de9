// Package sketchio serializes the RR-set influence oracle (core.Oracle) to a
// versioned binary "sketch" file and loads it back, enabling the
// build-once / serve-many pipeline: an expensive sketch build (imsketch)
// runs offline, and any number of query servers (imserve) load the resulting
// artifact and answer influence queries without touching the graph again.
//
// # Format (version 3, little endian)
//
// A sketch stores the oracle's vertex→RR-set member index in CSR form
// (compressed sparse rows), the only structure queries read, so a loader can
// alias it straight out of a file mapping instead of rebuilding it:
//
//	offset      size    field
//	0           4       magic "IMSK"
//	4           2       format version (3)
//	6           1       diffusion model (0 = IC, 1 = LT)
//	7           1       flags (bit 0 = sharded; all other bits reserved as 0)
//	8           8       build seed
//	16          8       number of vertices n
//	24          8       number of RR sets R
//	32          8       number of member-index entries E
//	40          8(n+1)  offsets: uint64, from 0, non-decreasing, ending at E
//	40+8(n+1)   4E      entries: vertex v's RR-set ids at [offsets[v],
//	                    offsets[v+1]), int32, strictly ascending, below R
//	end-4       4       CRC-32C (Castagnoli) of everything before it
//
// When the sharded flag is set a 24-byte lineage extension sits between the
// header and the offsets (shifting the later sections down by 24):
//
//	40          8       shard index (0-based)
//	48          8       shard count
//	56          8       total RR sets across the whole fleet
//
// SplitSketch writes the extension so a shard is a complete, valid sketch on
// its own and still names the fleet it belongs to — a coordinator assembling
// shards can reject duplicates, gaps and mixed splits instead of silently
// merging wrong counts. Both array sections start 8-byte aligned.
//
// # Version 1 (read-only)
//
// Earlier builds wrote the RR sets themselves: the same header, except that
// field 32 is the payload length in bytes, then R records (uint32 count,
// then count × int32 vertex ids) — the record format v2 checkpoints still
// use — then the CRC-32C. Version 1 files still load, onto the heap through
// the record decoder checkpoints share; saving such an oracle again writes
// version 3, so re-saving a v1 file converts it. Because a v1 file carries
// nothing per vertex, one that declares more than 2^24 vertices must hold at
// least n/8 payload bytes.
//
// The trailing checksum catches bit rot. Decoding is strict: unknown
// versions, unknown flag bits, out-of-range or repeated ids, impossible
// lengths and, for a file, trailing bytes are all errors, never panics —
// sketches may come from untrusted storage.
package sketchio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// Version is the sketch format version Encode writes.
const Version = 3

// versionV1 is the set-major format earlier builds wrote; it is only read.
const versionV1 = 1

const (
	headerLen = 40
	magic     = "IMSK"
	// flagSharded marks a sketch produced by SplitSketch: a lineageLen-byte
	// shard lineage extension follows the header.
	flagSharded = 0x1
	lineageLen  = 24
	// maxRecordBuf caps one RR-set record: 64 MiB, i.e. 2^24 vertices.
	maxRecordBuf = 1 << 26
	// recordChunk is how many vertices readRecords reads at a time (64 KiB).
	recordChunk = 1 << 14
	// maxV1FreeVertices is the vertex count a version 1 file may declare
	// regardless of its size: loading it allocates 8 bytes of offsets per
	// vertex, 128 MiB at this count.
	maxV1FreeVertices = 1 << 24
)

// Decode errors. Errors wrapping ErrCorrupt carry a position/detail message.
var (
	ErrBadMagic    = errors.New("sketchio: not a sketch file (bad magic)")
	ErrVersion     = errors.New("sketchio: unsupported sketch version")
	ErrCorrupt     = errors.New("sketchio: corrupt sketch")
	ErrChecksum    = errors.New("sketchio: checksum mismatch")
	errNilOracle   = errors.New("sketchio: nil oracle")
	castagnoliTab  = crc32.MakeTable(crc32.Castagnoli)
	errShortSketch = fmt.Errorf("%w: truncated file", ErrCorrupt)
)

// EncodedSize returns the exact on-disk size in bytes of o's sketch.
func EncodedSize(o *core.Oracle) int64 {
	offsets, entries := o.MemberIndex()
	size := int64(headerLen) + 8*int64(len(offsets)) + 4*int64(len(entries)) + 4
	if o.ShardLineage().Sharded() {
		size += lineageLen
	}
	return size
}

// Encode writes o as a version 3 sketch to w: the header, then the oracle's
// member index section by section, each written in one piece.
func Encode(w io.Writer, o *core.Oracle) error {
	if o == nil {
		return errNilOracle
	}
	offsets, entries := o.MemberIndex()
	crc := crc32.New(castagnoliTab)
	mw := io.MultiWriter(w, crc)

	hdr := make([]byte, headerLen, headerLen+lineageLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	hdr[6] = byte(o.Model())
	binary.LittleEndian.PutUint64(hdr[8:], o.BuildSeed())
	binary.LittleEndian.PutUint64(hdr[16:], uint64(o.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(o.NumSets()))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(entries)))
	if l := o.ShardLineage(); l.Sharded() {
		hdr[7] = flagSharded
		hdr = hdr[:headerLen+lineageLen]
		binary.LittleEndian.PutUint64(hdr[headerLen:], uint64(l.Index))
		binary.LittleEndian.PutUint64(hdr[headerLen+8:], uint64(l.Count))
		binary.LittleEndian.PutUint64(hdr[headerLen+16:], uint64(l.TotalSets))
	}
	if _, err := mw.Write(hdr); err != nil {
		return err
	}
	if err := writeLE(mw, offsets); err != nil {
		return err
	}
	if err := writeLE(mw, entries); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// writeLE writes s to w as little-endian values: straight from memory on a
// little-endian host, converted in 64 KiB chunks elsewhere.
func writeLE[T uint64 | int32](w io.Writer, s []T) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
		return err
	}
	chunk := (1 << 16) / int(unsafe.Sizeof(s[0]))
	var buf []byte
	for len(s) > 0 {
		k := min(len(s), chunk)
		buf, _ = binary.Append(buf[:0], binary.LittleEndian, s[:k]) // fixed-size values never fail
		if _, err := w.Write(buf); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// setIter streams RR sets in index order to fn, stopping at fn's first error:
// the shape of core.RRStore.ForEach over a fixed range.
type setIter func(fn func(i int, set []graph.VertexID) error) error

// eachSet iterates over sets held in a slice.
func eachSet(sets [][]graph.VertexID) setIter {
	return func(fn func(int, []graph.VertexID) error) error {
		for i, set := range sets {
			if err := fn(i, set); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeRecords writes the length-prefixed RR-set records each streams to w:
// the payload encoder of v2 checkpoint segments.
func writeRecords(w io.Writer, each setIter) error {
	var scratch []byte
	return each(func(_ int, set []graph.VertexID) error {
		need := 4 + 4*len(set)
		if cap(scratch) < need {
			scratch = make([]byte, need)
		}
		buf := scratch[:need]
		binary.LittleEndian.PutUint32(buf, uint32(len(set)))
		for j, v := range set {
			binary.LittleEndian.PutUint32(buf[4+4*j:], uint32(v))
		}
		_, err := w.Write(buf)
		return err
	})
}

// recordsLen returns the encoded payload size of the given RR sets.
func recordsLen(sets [][]graph.VertexID) uint64 {
	var payload uint64
	for _, set := range sets {
		payload += 4 + 4*uint64(len(set))
	}
	return payload
}

// WriteFile atomically writes o's sketch to path: it encodes into a
// temporary file in the same directory and renames it into place, so readers
// never observe a half-written sketch.
func WriteFile(path string, o *core.Oracle) error {
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Encode(tmp, o); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1], path[i+1:]
		}
	}
	return ".", path
}

// header is the decoded fixed-size sketch header.
type header struct {
	version uint16
	model   diffusion.Model
	seed    uint64
	n       int
	numSets int
	// count is field 32: the payload length in bytes for version 1, the
	// member-index entry count for version 3.
	count uint64
	// sharded reports the flagSharded bit: a lineageLen-byte extension
	// follows this header.
	sharded bool
}

func parseHeader(hdr []byte) (header, error) {
	var h header
	if string(hdr[:4]) != magic {
		return h, ErrBadMagic
	}
	h.version = binary.LittleEndian.Uint16(hdr[4:])
	if h.version != Version && h.version != versionV1 {
		return h, fmt.Errorf("%w: got %d, support %d and %d", ErrVersion, h.version, Version, versionV1)
	}
	switch diffusion.Model(hdr[6]) {
	case diffusion.IC, diffusion.LT:
		h.model = diffusion.Model(hdr[6])
	default:
		return h, fmt.Errorf("%w: unknown diffusion model %d", ErrCorrupt, hdr[6])
	}
	if hdr[7]&^flagSharded != 0 {
		return h, fmt.Errorf("%w: unknown flag bits %#02x", ErrCorrupt, hdr[7]&^byte(flagSharded))
	}
	h.sharded = hdr[7]&flagSharded != 0
	h.seed = binary.LittleEndian.Uint64(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[16:])
	numSets := binary.LittleEndian.Uint64(hdr[24:])
	count := binary.LittleEndian.Uint64(hdr[32:])
	if n < 1 || n > math.MaxInt32 {
		return h, fmt.Errorf("%w: vertex count %d outside [1, 2^31)", ErrCorrupt, n)
	}
	if numSets < 1 || numSets > math.MaxInt32 {
		return h, fmt.Errorf("%w: RR-set count %d outside [1, 2^31)", ErrCorrupt, numSets)
	}
	if h.version == versionV1 {
		// Each record is at least a 4-byte count; a payload shorter than
		// that is impossible, as is one above 2^56 bytes.
		if count < 4*numSets || count > 1<<56 {
			return h, fmt.Errorf("%w: payload length %d impossible for %d RR sets", ErrCorrupt, count, numSets)
		}
		// A version 1 file carries nothing per vertex, yet loading it builds
		// n+1 offsets. Past maxV1FreeVertices it must hold at least n/8
		// payload bytes, so a short file cannot claim a huge graph.
		if n > maxV1FreeVertices && n > 8*count {
			return h, fmt.Errorf("%w: %d vertices implausible for a %d-byte version 1 payload", ErrCorrupt, n, count)
		}
	} else if count > n*numSets || count > 1<<56 {
		// A vertex appears at most once per RR set.
		return h, fmt.Errorf("%w: %d member-index entries impossible for %d vertices and %d RR sets", ErrCorrupt, count, n, numSets)
	}
	h.n = int(n)
	h.numSets = int(numSets)
	h.count = count
	return h, nil
}

// imageLen returns the exact size of the sketch file h describes: header,
// lineage when sharded, the version 1 record payload or the version 3
// offsets and entries, and the checksum.
func (h header) imageLen() uint64 {
	size := headerLen + 8*(uint64(h.n)+1) + 4*h.count + 4
	if h.version == versionV1 {
		size = headerLen + h.count + 4
	}
	if h.sharded {
		size += lineageLen
	}
	return size
}

// parseLineage decodes the lineageLen-byte shard lineage extension of a
// sharded sketch. Every field is bounds-checked here against the same
// [1, 2^31) envelope as the header counts; cross-field consistency with the
// shard's own RR-set count is enforced by core.Oracle.SetShardLineage once
// the payload has decoded.
func parseLineage(ext []byte) (core.ShardLineage, error) {
	idx := binary.LittleEndian.Uint64(ext)
	count := binary.LittleEndian.Uint64(ext[8:])
	total := binary.LittleEndian.Uint64(ext[16:])
	if count < 1 || count > math.MaxInt32 {
		return core.ShardLineage{}, fmt.Errorf("%w: shard count %d outside [1, 2^31)", ErrCorrupt, count)
	}
	if idx >= count {
		return core.ShardLineage{}, fmt.Errorf("%w: shard index %d outside [0, %d)", ErrCorrupt, idx, count)
	}
	if total < 1 || total > math.MaxInt32 {
		return core.ShardLineage{}, fmt.Errorf("%w: fleet RR-set count %d outside [1, 2^31)", ErrCorrupt, total)
	}
	return core.ShardLineage{Index: int(idx), Count: int(count), TotalSets: int(total)}, nil
}

// applyLineage installs a decoded shard lineage on the reassembled oracle,
// mapping a cross-field mismatch (more local sets than the fleet total, more
// shards than sets) to a corruption error.
func applyLineage(o *core.Oracle, l core.ShardLineage) (*core.Oracle, error) {
	if err := o.SetShardLineage(l); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return o, nil
}

// Decode reads one sketch from r and builds its oracle on the heap. It reads
// exactly the bytes the header declares and nothing after the checksum, so a
// sketch may sit inside a longer stream; the buffer grows only as bytes
// arrive, so a hostile header cannot force a large allocation.
func Decode(r io.Reader) (*core.Oracle, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, readErr(err)
	}
	h, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	image, err := readImage(r, hdr, h.imageLen())
	if err != nil {
		return nil, err
	}
	o, _, err := decodeImage(image)
	return o, err
}

// readImage returns hdr followed by the rest of a size-byte image read from
// r. The buffer starts at 1 MiB at most and doubles, capped at size, each
// time it fills.
func readImage(r io.Reader, hdr []byte, size uint64) ([]byte, error) {
	buf := make([]byte, len(hdr), min(size, 1<<20))
	copy(buf, hdr)
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, readErr(err)
		}
		if uint64(len(buf)) == size {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(size, 2*uint64(len(buf))))
		copy(grown, buf)
		buf = grown
	}
}

// decodeImage decodes a complete sketch image: data holds exactly one
// sketch, so bytes after the checksum are corruption. Every check runs before
// the oracle is returned — header, exact length, the body's structure (for
// version 3 the member index check, on all CPUs), and the CRC-32C over
// everything, computed concurrently with the structural check — and each
// only reads within bounds the earlier ones established. A structural fault
// takes precedence over a checksum mismatch, as if the checks ran in that
// order. A version 3 member index aliases data when the host is
// little-endian and data is 8-byte aligned — aliased reports it, and data
// must then outlive every use of the oracle; otherwise, and for version 1,
// the oracle owns heap copies.
func decodeImage(data []byte) (o *core.Oracle, aliased bool, err error) {
	if len(data) < headerLen+4 {
		return nil, false, errShortSketch
	}
	h, err := parseHeader(data[:headerLen])
	if err != nil {
		return nil, false, err
	}
	if size := h.imageLen(); size != uint64(len(data)) {
		return nil, false, fmt.Errorf("%w: header declares a %d-byte sketch, image holds %d bytes", ErrCorrupt, size, len(data))
	}
	body := data[headerLen : len(data)-4]
	var lineage core.ShardLineage
	if h.sharded {
		if lineage, err = parseLineage(body[:lineageLen]); err != nil {
			return nil, false, err
		}
		body = body[lineageLen:]
	}
	// The checksum goroutine reads data, which the caller may unmap once
	// this returns, so every path below waits for it.
	sum := make(chan uint32, 1)
	go func() { sum <- crc32.Checksum(data[:len(data)-4], castagnoliTab) }()
	o, aliased, err = decodeBody(h, body)
	if want := <-sum; err == nil && binary.LittleEndian.Uint32(data[len(data)-4:]) != want {
		err = ErrChecksum
	}
	if err != nil {
		return nil, false, err
	}
	if h.sharded {
		o, err = applyLineage(o, lineage)
	}
	return o, aliased, err
}

// decodeBody decodes and checks the version 1 records or the version 3
// member index of a sketch image into an oracle.
func decodeBody(h header, body []byte) (o *core.Oracle, aliased bool, err error) {
	if h.version == versionV1 {
		var rrSets [][]graph.VertexID
		if err = readRecords(bytes.NewReader(body), h.n, h.numSets, h.count, new(vertexArena).keep(&rrSets)); err != nil {
			return nil, false, err
		}
		o, err = core.NewOracleFromRRSets(h.n, h.model, h.seed, rrSets)
	} else {
		var offsets []uint64
		var entries []int32
		offsets, entries, aliased = memberViews(body[:8*(h.n+1)], body[8*(h.n+1):])
		o, err = core.NewOracleFromMemberIndex(h.n, h.model, h.seed, h.numSets, offsets, entries)
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return o, aliased, nil
}

// memberViews interprets the version 3 offsets and entries sections as
// slices: views into the sections themselves when the host byte order and
// their alignment allow, decoded copies otherwise.
func memberViews(offBytes, entBytes []byte) (offsets []uint64, entries []int32, aliased bool) {
	if hostLittleEndian && uintptr(unsafe.Pointer(&offBytes[0]))%8 == 0 {
		offsets = unsafe.Slice((*uint64)(unsafe.Pointer(&offBytes[0])), len(offBytes)/8)
		if len(entBytes) > 0 {
			entries = unsafe.Slice((*int32)(unsafe.Pointer(&entBytes[0])), len(entBytes)/4)
		}
		return offsets, entries, true
	}
	offsets = make([]uint64, len(offBytes)/8)
	entries = make([]int32, len(entBytes)/4)
	_, _ = binary.Decode(offBytes, binary.LittleEndian, offsets) // sized to fit
	_, _ = binary.Decode(entBytes, binary.LittleEndian, entries)
	return offsets, entries, false
}

// readRecords decodes numSets length-prefixed RR-set records spanning exactly
// payloadLen bytes of r, validating every vertex id against [0, n), and hands
// each set to fn in order, stopping at fn's first error; a nil fn only
// validates. It is the one record decoder: version 1 sketches, v2 checkpoint
// segments and spill-store scans all call it. Records are read in chunks of
// at most recordChunk vertices and the set buffer grows only as bytes arrive,
// so a hostile count cannot request more than one chunk the input does not
// hold. The set fn receives is that buffer, reused for the next record and
// valid only until fn returns: Inspect verifies multi-GB files in O(record)
// memory, and a caller that keeps sets copies them (vertexArena.keep).
func readRecords(r io.Reader, n, numSets int, payloadLen uint64, fn func(i int, set []graph.VertexID) error) error {
	remaining := payloadLen
	var lenBuf [4]byte
	var chunk []byte
	var set []graph.VertexID
	for i := 0; i < numSets; i++ {
		if remaining < 4 {
			return fmt.Errorf("%w: payload exhausted at RR set %d", ErrCorrupt, i)
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return readErr(err)
		}
		remaining -= 4
		count := binary.LittleEndian.Uint32(lenBuf[:])
		// An RR set holds distinct vertices, so its size cannot exceed n.
		if uint64(count) > uint64(n) {
			return fmt.Errorf("%w: RR set %d claims %d members on a %d-vertex graph", ErrCorrupt, i, count, n)
		}
		need := 4 * uint64(count)
		if need > remaining {
			return fmt.Errorf("%w: RR set %d overruns payload", ErrCorrupt, i)
		}
		if need > maxRecordBuf {
			return fmt.Errorf("%w: RR set %d record of %d bytes exceeds limit", ErrCorrupt, i, need)
		}
		remaining -= need
		set = set[:0]
		for left := int(count); left > 0; {
			k := min(left, recordChunk)
			chunk = slices.Grow(chunk[:0], 4*k)[:4*k]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return readErr(err)
			}
			base := len(set)
			set = slices.Grow(set, k)[:base+k]
			for j := range k {
				v := binary.LittleEndian.Uint32(chunk[4*j:])
				if uint64(v) >= uint64(n) {
					return fmt.Errorf("%w: RR set %d contains vertex %d outside [0, %d)", ErrCorrupt, i, v, n)
				}
				set[base+j] = graph.VertexID(v)
			}
			left -= k
		}
		if fn != nil {
			if err := fn(i, set); err != nil {
				return err
			}
		}
	}
	if remaining != 0 {
		return fmt.Errorf("%w: %d unread payload bytes after last RR set", ErrCorrupt, remaining)
	}
	return nil
}

func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errShortSketch
	}
	return err
}

// ReadFile loads the sketch at path onto the heap. Like OpenMapped it
// decodes the whole file as one image, so bytes after the checksum are
// corruption.
func ReadFile(path string) (*core.Oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	o, _, err := decodeImage(data)
	return o, err
}
