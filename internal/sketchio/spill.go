package sketchio

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// DefaultSpillMaxBatch caps one append round of a spill build, whose store
// keeps no sets in memory. The in-flight batch lives on the heap until the
// store persists it, so such builds keep rounds small: 2^16 sets is a few MiB
// on typical graphs.
const DefaultSpillMaxBatch = 1 << 16

// errSpillClosed reports a read or append on a closed SpillStore.
var errSpillClosed = errors.New("sketchio: spill store is closed")

// errScanDone stops a segment's record decode once a ForEach range ends.
var errScanDone = errors.New("sketchio: scan range done")

// spillSeg locates one durable segment inside the spill file.
type spillSeg struct {
	off     int64  // file offset of the segment header
	first   int    // global index of the segment's first RR set
	count   int    // RR sets in the segment
	payload uint64 // encoded record bytes (the segment is segHeaderLen+payload+4 on disk)
}

// SpillStore is the disk-backed core.RRStore and the only code that writes
// v2 checkpoint files: every appended batch is written through as one
// CRC-framed segment (written, then fsynced) before Append returns, so the
// file is simultaneously the build's storage and a crash-consistent
// checkpoint — reopening it resumes the build exactly where the last durable
// segment left off, torn tail truncated away.
//
// A store keeps every set or none, fixed at open. One that keeps its sets (a
// checkpointed build) holds them in a core.MemStore beside the file, which is
// their durable mirror, and ForEach reads the heap. One that keeps none (a
// spill build) holds only the segment table: ForEach reads each segment in
// its range once from the file with a positioned read, verifies its header
// and CRC-32C, and only then decodes its records into buffers the call
// reuses, so sampling a sketch larger than RAM holds one round's batch.
//
// Because the builder's RR-set sequence depends only on (seed, index), a
// build through a SpillStore produces byte-for-byte the sketch an in-memory
// build would — the store changes where bytes wait, never what they are.
//
// A SpillStore is safe for concurrent reads with one concurrent Append, per
// the core.RRStore contract.
type SpillStore struct {
	meta CheckpointMeta

	// wmu serializes the writers, Append and Close. It is held across the
	// segment write and fsync so that mu never is.
	wmu sync.Mutex
	err error // sticky, guarded by wmu: a failed append leaves an untrusted tail

	// mu guards the fields below. It is held only to read or publish them,
	// never across file I/O, decoding or a caller's callback.
	mu      sync.Mutex
	f       *os.File
	mem     *core.MemStore // every set, when the store keeps them; nil otherwise
	segs    []spillSeg
	numSets int
	size    int64 // durable file size
	payload int64 // total encoded record bytes across segments

	decodes atomic.Int64 // segments decoded from the file so far
}

var _ core.RRStore = (*SpillStore)(nil)

// OpenSpillStore opens (or creates) the spill file at path for the build
// identified by meta. keepSets picks the store's mode: true keeps every set
// decoded in memory beside the file (a checkpointed build), false keeps none
// and reads every set back from the file (a spill build).
//
// A fresh file gets the v2 checkpoint header. An existing file must carry the
// same metadata (ErrCheckpointMeta otherwise — resuming a different build's
// file would splice two unrelated RR-set sequences) and is scanned segment
// by segment, CRCs and vertex ids verified, to rebuild the segment table; a
// store that keeps its sets decodes them during that scan, so no later read
// decodes them again. A torn or corrupt tail — a crash mid-append — is
// truncated away: the surviving prefix is a shorter checkpoint of the same
// deterministic sequence, and the resumed build regenerates the lost sets
// identically. The caller owns the store and must Close it; Close leaves the
// file on disk for a later resume or for cleanup by the caller.
func OpenSpillStore(path string, meta CheckpointMeta, keepSets bool) (*SpillStore, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s := &SpillStore{f: f, meta: meta}
	if st.Size() == 0 {
		if _, err := f.Write(encodeCheckpointHeader(meta)); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		s.size = headerLen
		if keepSets {
			s.mem = core.NewMemStore(nil)
		}
		return s, nil
	}

	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		_ = f.Close()
		return nil, readErr(err)
	}
	got, err := parseCheckpointHeader(hdr)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if got != meta {
		_ = f.Close()
		return nil, fmt.Errorf("%w: file records model=%v seed=%d n=%d graph=%016x, build is model=%v seed=%d n=%d graph=%016x",
			ErrCheckpointMeta, got.Model, got.Seed, got.N, got.GraphHash, meta.Model, meta.Seed, meta.N, meta.GraphHash)
	}
	var sets [][]graph.VertexID
	var keep func(int, []graph.VertexID) error
	if keepSets {
		keep = new(vertexArena).keep(&sets)
	}
	off := int64(headerLen)
	for {
		// CRCs and vertex ids are checked now, so the segment table can be
		// trusted without rescanning.
		count, size, _, err := readSegment(br, meta.N, s.numSets, keep)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail from a crash mid-append: drop it, the
			// deterministic build regenerates whatever was lost.
			if terr := f.Truncate(off); terr != nil {
				_ = f.Close()
				return nil, terr
			}
			break
		}
		payload := uint64(size) - segHeaderLen - 4
		s.segs = append(s.segs, spillSeg{off: off, first: s.numSets, count: count, payload: payload})
		s.numSets += count
		s.payload += int64(payload)
		off += size
		if keepSets {
			s.decodes.Add(1)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	s.size = off
	if keepSets {
		// A torn segment may have handed over some of its sets already.
		s.mem = core.NewMemStore(sets[:s.numSets])
	}
	return s, nil
}

// Meta returns the build identity recorded in the spill file's header.
func (s *SpillStore) Meta() CheckpointMeta { return s.meta }

// NumSets returns the number of RR sets durably held.
func (s *SpillStore) NumSets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numSets
}

// Append writes batch through to disk as one fsynced segment and extends the
// segment table; a store that keeps its sets also keeps batch. The batch is
// durable when Append returns. After a failed append the store refuses
// further writes — the file tail is untrusted — but the file remains
// resumable: the next OpenSpillStore truncates the damage away.
func (s *SpillStore) Append(batch [][]graph.VertexID) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.mu.Lock()
	f, off := s.f, s.size
	s.mu.Unlock()
	if f == nil {
		return errSpillClosed
	}
	if len(batch) == 0 {
		return nil
	}
	payload := recordsLen(batch)
	if err := writeSegment(f, batch); err != nil {
		s.err = fmt.Errorf("sketchio: spill append failed, further appends disabled: %w", err)
		return s.err
	}
	if err := f.Sync(); err != nil {
		s.err = fmt.Errorf("sketchio: spill sync failed, further appends disabled: %w", err)
		return s.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = append(s.segs, spillSeg{off: off, first: s.numSets, count: len(batch), payload: payload})
	s.size += segHeaderLen + int64(payload) + 4
	s.numSets += len(batch)
	s.payload += int64(payload)
	if s.mem != nil {
		return s.mem.Append(batch)
	}
	return nil
}

// ForEach streams the sets with index in [from, to) in ascending order. A
// store that keeps its sets reads them from memory. One that keeps none reads
// each segment in the range once from the file into a buffer the call
// reuses, and hands no set to fn before the segment's header matches the
// segment table and its CRC-32C matches its bytes; a vertex id outside the
// graph is ErrCorrupt. The set fn receives is valid only until fn returns.
// The store's lock is held only to snapshot the segment table.
func (s *SpillStore) ForEach(from, to int, fn func(i int, set []graph.VertexID) error) error {
	s.mu.Lock()
	f, mem, segs, total := s.f, s.mem, s.segs, s.numSets
	s.mu.Unlock()
	if f == nil {
		return errSpillClosed
	}
	if from < 0 || to > total || from > to {
		return fmt.Errorf("sketchio: ForEach range [%d, %d) outside [0, %d)", from, to, total)
	}
	if mem != nil {
		return mem.ForEach(from, to, fn)
	}
	var buf []byte
	next := from
	for si := sort.Search(len(segs), func(k int) bool { return segs[k].first+segs[k].count > from }); next < to; si++ {
		seg := segs[si]
		next = seg.first + seg.count
		size := segHeaderLen + int(seg.payload) + 4
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := f.ReadAt(buf, seg.off); err != nil {
			return readErr(err)
		}
		h, err := parseSegmentHeader(buf[:segHeaderLen], seg.first)
		if err != nil {
			return err
		}
		if h.count != seg.count || h.payloadLen != seg.payload {
			return fmt.Errorf("%w: segment at offset %d now holds %d RR sets in %d bytes, want %d in %d",
				ErrCorrupt, seg.off, h.count, h.payloadLen, seg.count, seg.payload)
		}
		if binary.LittleEndian.Uint32(buf[size-4:]) != crc32.Checksum(buf[:size-4], castagnoliTab) {
			return ErrChecksum
		}
		s.decodes.Add(1)
		err = readRecords(bytes.NewReader(buf[segHeaderLen:size-4]), s.meta.N, seg.count, seg.payload, func(j int, set []graph.VertexID) error {
			switch i := seg.first + j; {
			case i < from:
				return nil
			case i >= to:
				return errScanDone
			default:
				return fn(i, set)
			}
		})
		if err != nil && !errors.Is(err, errScanDone) {
			return err
		}
	}
	return nil
}

// Stats reports the store's footprint: MemBytes is the decoded sets it keeps
// (0 for a store that keeps none), SpillBytes the durable file size.
func (s *SpillStore) Stats() core.StoreStats {
	s.mu.Lock()
	st := core.StoreStats{Sets: s.numSets, PayloadBytes: s.payload, SpillBytes: s.size}
	mem := s.mem
	s.mu.Unlock()
	if mem != nil {
		st.MemBytes = mem.Stats().MemBytes
	}
	return st
}

// Close closes the spill file and drops the kept sets. The file stays on
// disk — it is a valid checkpoint a later OpenSpillStore resumes from; delete
// it when the build's artifacts are no longer needed. Sets must not be read
// after Close.
func (s *SpillStore) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	f := s.f
	s.f, s.mem = nil, nil
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}

// BuildSpill runs a checkpointed build end to end: it opens (or resumes) the
// v2 file at path, reconstructs the builder from the segments already on
// disk, and runs BuildToTarget with every round's batch written through the
// store as one durable segment. Only the sign of mode matters. Negative keeps
// every set in memory beside the file: an in-memory build with a durable
// mirror, which keeps BuildToTarget's doubling rounds, so it writes one
// segment per round and an adaptive build checks its bound no more often than
// in memory. Zero or positive keeps none (a spill build) and clamps
// target.MaxBatch to DefaultSpillMaxBatch, so the in-flight batch — the only
// full-size RR-set buffer it holds — stays small.
//
// On every return after the store opened successfully — success, cancellation,
// append failure — the store is returned alongside the builder and the caller
// owns closing it. The oracle a later builder.Oracle() yields holds only its
// member index, so the store can be closed as soon as Oracle returns. The
// file itself survives Close for resume; remove it once the final sketch is
// written.
func BuildSpill(ctx context.Context, path string, ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64, mode int64, target core.BuildTarget) (*core.SketchBuilder, *SpillStore, core.BuildResult, error) {
	if ig == nil || ig.NumVertices() == 0 {
		return nil, nil, core.BuildResult{}, core.ErrEmptyGraph
	}
	keepSets := mode < 0
	store, err := OpenSpillStore(path, checkpointMetaFor(ig, model, seed), keepSets)
	if err != nil {
		return nil, nil, core.BuildResult{}, err
	}
	b, err := core.NewSketchBuilderFromStore(ig, model, workers, seed, store)
	if err != nil {
		_ = store.Close()
		return nil, nil, core.BuildResult{}, err
	}
	if !keepSets && (target.MaxBatch < 1 || target.MaxBatch > DefaultSpillMaxBatch) {
		target.MaxBatch = DefaultSpillMaxBatch
	}
	res, err := b.BuildToTarget(ctx, target)
	return b, store, res, err
}
