package sketchio

import (
	"encoding/binary"
	"os"
	"sync"

	"imdist/internal/core"
)

// hostLittleEndian reports whether this machine stores integers in the
// sketch file's byte order, the precondition for aliasing a member index
// into the file's bytes and for writing one straight from memory.
var hostLittleEndian = func() bool {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 1)
	return buf[0] == 1
}()

// MappedSketch is a loaded sketch whose backing storage has an explicit
// lifetime. For a version 3 sketch on a platform with memory mapping and a
// little-endian host, the oracle's member index — the only structure queries
// read — aliases the mapped file directly: opening allocates nothing
// proportional to the sketch, and the page cache is shared between every
// process serving it. The mapping must therefore outlive every query.
//
// Lifetime is managed by reference counting: callers bracket each query with
// Acquire/Release, and Close drops the owner reference. The munmap is
// deferred until both the owner and every in-flight query have released, so
// a hot reload can swap a new sketch in immediately while queries drain on
// the old one (the copy-on-swap semantics of internal/server's registry).
//
// Version 1 sketches, and hosts without mapping or little-endian integers,
// load onto the heap instead, and the same API degrades to no-ops, so
// callers never need to care which mode they got.
type MappedSketch struct {
	oracle *core.Oracle

	mu     sync.Mutex
	refs   int
	closed bool
	unmap  func()

	zeroCopy bool
}

// OpenMapped loads the sketch at path, memory-mapping it and aliasing the
// oracle's member index into the mapping when the format, platform and byte
// order allow; otherwise it falls back to a heap-decoded oracle with the same
// refcounting API. Either way every check runs before the oracle is
// returned: the header, the index check on all CPUs (offsets non-decreasing
// and ending at the entry count, each vertex's ids strictly ascending and
// below R), and the CRC-32C over the whole file, computed beside the index
// check; a structural fault is reported before a checksum mismatch. The file
// must hold exactly one sketch: trailing bytes are corruption. The caller
// owns one reference and must call Close when done; queries issued
// concurrently with Close must hold their own Acquire/Release pair.
//
// Because the mapping is shared with the file, a mapped sketch file must
// only ever be replaced atomically (write to a temp file, then rename into
// place — what WriteFile and imsketch always do), never rewritten in place:
// validation runs once at open time, so in-place writes would corrupt the
// index under live queries.
func OpenMapped(path string) (*MappedSketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, unmap, ok := mmapFile(f)
	if !ok {
		oracle, err := ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &MappedSketch{oracle: oracle}, nil
	}
	oracle, aliased, err := decodeImage(data)
	if err != nil {
		unmap()
		return nil, err
	}
	if !aliased {
		// The oracle owns heap copies: release the mapping now.
		unmap()
		return &MappedSketch{oracle: oracle}, nil
	}
	return &MappedSketch{oracle: oracle, unmap: unmap, zeroCopy: true}, nil
}

// Oracle returns the loaded oracle. When ZeroCopy reports true its member
// index aliases the mapping, so every use must sit inside an Acquire/Release
// pair or complete before Close.
func (m *MappedSketch) Oracle() *core.Oracle { return m.oracle }

// ZeroCopy reports whether the oracle's member index aliases the live
// mapping (false for heap-decoded fallbacks, whose lifetime is the garbage
// collector's problem).
func (m *MappedSketch) ZeroCopy() bool { return m.zeroCopy }

// Acquire takes a query reference, preventing the mapping from being
// unmapped until the matching Release. It returns false once Close has been
// called; callers must then treat the sketch as gone.
func (m *MappedSketch) Acquire() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.refs++
	return true
}

// Release drops a query reference taken by Acquire. The last release after
// Close unmaps the file.
func (m *MappedSketch) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.refs--; m.refs < 0 {
		panic("sketchio: MappedSketch.Release without Acquire")
	}
	m.maybeUnmapLocked()
}

// Close drops the owner reference. If queries are still in flight the unmap
// is deferred to the last Release; new Acquires fail immediately.
func (m *MappedSketch) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.maybeUnmapLocked()
}

func (m *MappedSketch) maybeUnmapLocked() {
	if m.closed && m.refs == 0 && m.unmap != nil {
		m.unmap()
		m.unmap = nil
	}
}

// unmapped reports whether the mapping has been released (test hook; always
// false for heap-decoded sketches, which never had one).
func (m *MappedSketch) unmapped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.zeroCopy && m.unmap == nil
}
