package sketchio

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// Spill-store defaults.
const (
	// DefaultSpillMemBudget bounds the decoded working set a SpillStore keeps
	// on the heap when the caller passes budget 0.
	DefaultSpillMemBudget = 64 << 20
	// DefaultSpillMaxBatch caps one append round of a spill build with a
	// bounded budget. The in-flight batch lives on the heap until the store
	// persists it — independent of the store's budget — so such builds keep
	// rounds small: 2^16 sets is a few MiB on typical graphs.
	DefaultSpillMaxBatch = 1 << 16
)

// spillSeg locates one durable segment inside the spill file.
type spillSeg struct {
	off     int64  // file offset of the segment header
	first   int    // global index of the segment's first RR set
	count   int    // RR sets in the segment
	payload uint64 // encoded record bytes (the segment is segHeaderLen+payload+4 on disk)
}

// spillCacheEntry is one decoded segment resident in the working set.
type spillCacheEntry struct {
	sets    [][]graph.VertexID
	bytes   int64
	lastUse int64
}

// SpillStore is the disk-backed core.RRStore and the only code that writes
// v2 checkpoint files: every appended batch is written through as one
// CRC-framed segment (written, then fsynced) before Append returns, so the
// file is simultaneously the build's storage and a crash-consistent
// checkpoint — reopening it resumes the build exactly where the last durable
// segment left off, torn tail truncated away.
//
// Appended batches stay decoded in a least-recently-used working set bounded
// by the configured byte budget; an unbounded store keeps every set there and
// is a checkpointed in-memory store. ForEach reads a segment that is not
// resident back through the file: a segment index (built once at open,
// extended on append) maps a set index to its segment, and the segment's
// bytes are read via mmap when available. Decoded sets are heap copies,
// never aliases of the mapping, so remapping after growth and evicting under
// budget pressure are both safe while a caller still holds a previously
// returned slice.
//
// Because the builder's RR-set sequence depends only on (seed, index), a
// build through a SpillStore produces byte-for-byte the sketch an in-memory
// build would — the store changes where bytes wait, never what they are.
//
// A SpillStore is safe for concurrent reads with one concurrent Append, per
// the core.RRStore contract.
type SpillStore struct {
	mu     sync.Mutex
	f      *os.File
	meta   CheckpointMeta
	budget int64

	segs    []spillSeg
	numSets int
	size    int64 // durable file size
	payload int64 // total encoded record bytes across segments

	mmapData   []byte
	unmap      func()
	mappedSize int64

	cache      map[int]*spillCacheEntry // segment index → decoded sets
	cacheBytes int64
	tick       int64
	decodes    int // segments decoded from the file so far

	err error // sticky: a failed append leaves an untrusted tail
}

var _ core.RRStore = (*SpillStore)(nil)

// OpenSpillStore opens (or creates) the spill file at path for the build
// identified by meta. budget bounds the decoded working set in bytes: 0
// selects DefaultSpillMemBudget, negative means unbounded (the store then
// keeps every set on the heap, with the file as its durable mirror).
//
// A fresh file gets the v2 checkpoint header. An existing file must carry the
// same metadata (ErrCheckpointMeta otherwise — resuming a different build's
// file would splice two unrelated RR-set sequences) and is scanned segment
// by segment, CRCs and vertex ids verified, to rebuild the segment index. A
// bounded store materializes nothing during the scan; an unbounded one
// decodes every segment into its working set there, so no later read
// decodes it again. A torn or corrupt tail — a crash mid-append — is
// truncated away: the surviving prefix is a shorter checkpoint of the same
// deterministic sequence, and the resumed build regenerates the lost sets
// identically. The caller owns the store and must Close it; Close leaves the
// file on disk for a later resume or for cleanup by the caller.
func OpenSpillStore(path string, meta CheckpointMeta, budget int64) (*SpillStore, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	// An unbounded store decodes the durable segments while it scans them.
	var arena *vertexArena
	if budget == 0 {
		budget = DefaultSpillMemBudget
	} else if budget < 0 {
		budget = math.MaxInt64
		arena = &vertexArena{}
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
	s := &SpillStore{f: f, meta: meta, budget: budget, cache: make(map[int]*spillCacheEntry)}
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
	off := int64(headerLen)
	for {
		// CRCs and vertex ids are checked now, so later reads can trust the
		// index without rescanning.
		sets, count, size, _, err := readSegment(br, meta.N, s.numSets, arena)
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
		if sets != nil {
			s.decodes++
			s.insertCacheLocked(len(s.segs)-1, sets)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	s.size = off
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

// Append writes batch through to disk as one fsynced segment, extends the
// segment index, and pins the decoded batch in the working set (evicting the
// least recently used segments beyond the budget). The batch is durable when
// Append returns. After a failed append the store refuses further writes —
// the file tail is untrusted — but the file remains resumable: the next
// OpenSpillStore truncates the damage away.
func (s *SpillStore) Append(batch [][]graph.VertexID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if len(batch) == 0 {
		return nil
	}
	payload := recordsLen(batch)
	if err := writeSegment(s.f, batch); err != nil {
		s.err = fmt.Errorf("sketchio: spill append failed, further appends disabled: %w", err)
		return s.err
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("sketchio: spill sync failed, further appends disabled: %w", err)
		return s.err
	}
	s.segs = append(s.segs, spillSeg{off: s.size, first: s.numSets, count: len(batch), payload: payload})
	s.size += segHeaderLen + int64(payload) + 4
	s.numSets += len(batch)
	s.payload += int64(payload)
	s.insertCacheLocked(len(s.segs)-1, batch)
	return nil
}

// ForEach streams the sets with index in [from, to) in ascending order. Each
// non-resident segment is decoded once, in file order, without entering the
// working set — bulk scans (member-index construction, finalize) do not evict
// the build's hot tail. fn runs outside the store's lock.
func (s *SpillStore) ForEach(from, to int, fn func(i int, set []graph.VertexID) error) error {
	s.mu.Lock()
	total := s.numSets
	s.mu.Unlock()
	if from < 0 || to > total || from > to {
		return fmt.Errorf("sketchio: ForEach range [%d, %d) outside [0, %d)", from, to, total)
	}
	i := from
	for i < to {
		s.mu.Lock()
		si := s.segForLocked(i)
		seg := s.segs[si]
		sets, err := s.segmentSetsLocked(si)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		end := seg.first + seg.count
		if end > to {
			end = to
		}
		for ; i < end; i++ {
			if err := fn(i, sets[i-seg.first]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats reports the store's footprint: MemBytes is the decoded working set,
// SpillBytes the durable file size.
func (s *SpillStore) Stats() core.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.StoreStats{
		Sets:         s.numSets,
		PayloadBytes: s.payload,
		MemBytes:     s.cacheBytes,
		SpillBytes:   s.size,
	}
}

// Close unmaps and closes the spill file, dropping the working set. The file
// stays on disk — it is a valid checkpoint a later OpenSpillStore resumes
// from; delete it when the build's artifacts are no longer needed. Sets must
// not be read after Close.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unmap != nil {
		s.unmap()
		s.unmap, s.mmapData = nil, nil
	}
	s.cache, s.cacheBytes = make(map[int]*spillCacheEntry), 0
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// segForLocked returns the index of the segment holding set i.
func (s *SpillStore) segForLocked(i int) int {
	return sort.Search(len(s.segs), func(k int) bool { return s.segs[k].first+s.segs[k].count > i })
}

// segmentSetsLocked returns segment si decoded: from the working set when
// resident, otherwise decoded from the file without entering the working set,
// so a bulk scan does not evict the build's hot tail.
func (s *SpillStore) segmentSetsLocked(si int) ([][]graph.VertexID, error) {
	if e, ok := s.cache[si]; ok {
		s.tick++
		e.lastUse = s.tick
		return e.sets, nil
	}
	return s.decodeSegLocked(si)
}

// decodeSegLocked reads segment si back from the spill file, preferring the
// mapping (remapped lazily after growth) and falling back to positioned file
// reads where mmap is unavailable. The decode re-verifies the segment CRC —
// cheap next to the allocation it guards — and copies the sets onto the heap.
func (s *SpillStore) decodeSegLocked(si int) ([][]graph.VertexID, error) {
	if s.f == nil {
		return nil, fmt.Errorf("sketchio: spill store is closed")
	}
	seg := s.segs[si]
	segSize := segHeaderLen + int64(seg.payload) + 4
	s.remapLocked()
	var br *bufio.Reader
	if s.mmapData != nil && seg.off+segSize <= int64(len(s.mmapData)) {
		br = bufio.NewReader(bytes.NewReader(s.mmapData[seg.off : seg.off+segSize]))
	} else {
		br = bufio.NewReaderSize(io.NewSectionReader(s.f, seg.off, segSize), 1<<16)
	}
	sets, _, _, _, err := readSegment(br, s.meta.N, seg.first, &vertexArena{})
	if err != nil {
		return nil, err
	}
	s.decodes++
	return sets, nil
}

// remapLocked refreshes the read mapping after the file has grown. Mapping is
// an optimization: on failure reads fall back to the section-reader path.
func (s *SpillStore) remapLocked() {
	if s.mappedSize == s.size {
		return
	}
	if s.unmap != nil {
		s.unmap()
		s.unmap, s.mmapData = nil, nil
	}
	if data, unmap, ok := mmapFile(s.f); ok {
		s.mmapData, s.unmap = data, unmap
	}
	s.mappedSize = s.size
}

// insertCacheLocked pins a decoded segment and evicts least-recently-used
// entries beyond the budget, always keeping at least the newest entry so the
// build's hot segment survives even a budget smaller than one segment.
func (s *SpillStore) insertCacheLocked(si int, sets [][]graph.VertexID) {
	var n int64
	for _, set := range sets {
		n += 24 + 4*int64(len(set))
	}
	s.tick++
	s.cache[si] = &spillCacheEntry{sets: sets, bytes: n, lastUse: s.tick}
	s.cacheBytes += n
	for s.cacheBytes > s.budget && len(s.cache) > 1 {
		victim, oldest := -1, int64(math.MaxInt64)
		for k, e := range s.cache {
			if e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		s.cacheBytes -= s.cache[victim].bytes
		delete(s.cache, victim)
	}
}

// BuildSpill runs a checkpointed build end to end: it opens (or resumes) the
// v2 file at path, reconstructs the builder from the segments already on
// disk, and runs BuildToTarget with every round's batch written through the
// store as one durable segment. memBudget has OpenSpillStore semantics (0
// default, negative unbounded). A bounded build clamps target.MaxBatch to
// DefaultSpillMaxBatch, so the in-flight batch — the only full-size RR-set
// buffer it holds — stays small. An unbounded build is an in-memory build
// with a durable mirror: it keeps BuildToTarget's doubling rounds, so it
// writes one segment per round and an adaptive build checks its bound no
// more often than in memory.
//
// On every return after the store opened successfully — success, cancellation,
// append failure — the store is returned alongside the builder and the caller
// owns closing it. The oracle a later builder.Oracle() yields holds only its
// member index, so the store can be closed as soon as Oracle returns. The
// file itself survives Close for resume; remove it once the final sketch is
// written.
func BuildSpill(ctx context.Context, path string, ig *graph.InfluenceGraph, model diffusion.Model, workers int, seed uint64, memBudget int64, target core.BuildTarget) (*core.SketchBuilder, *SpillStore, core.BuildResult, error) {
	if ig == nil || ig.NumVertices() == 0 {
		return nil, nil, core.BuildResult{}, core.ErrEmptyGraph
	}
	store, err := OpenSpillStore(path, checkpointMetaFor(ig, model, seed), memBudget)
	if err != nil {
		return nil, nil, core.BuildResult{}, err
	}
	b, err := core.NewSketchBuilderFromStore(ig, model, workers, seed, store)
	if err != nil {
		_ = store.Close()
		return nil, nil, core.BuildResult{}, err
	}
	if memBudget >= 0 && (target.MaxBatch < 1 || target.MaxBatch > DefaultSpillMaxBatch) {
		target.MaxBatch = DefaultSpillMaxBatch
	}
	res, err := b.BuildToTarget(ctx, target)
	return b, store, res, err
}
