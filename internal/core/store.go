package core

import (
	"fmt"
	"sync"

	"imdist/internal/graph"
)

// RRStore is where a sketch's RR sets live while it is being built. A
// SketchBuilder appends to it and streams over it; the Oracle it finalizes
// reads the store once, to build its member index, and keeps only that index.
// No oracle reads a store after construction. The same build code therefore
// serves both the in-memory store (MemStore) and a spill-to-disk store that
// keeps only a bounded working set of decoded segments resident
// (internal/sketchio's SpillStore), which lets a sketch far larger than RAM
// build within a fixed memory budget.
//
// Contract:
//
//   - Sets are append-only and immutable: once Append returns, ForEach hands
//     out the same vertices for every existing index forever. This is what
//     lets a builder finalize an oracle over a prefix and keep appending.
//   - ForEach must be safe for concurrent use with itself and with one
//     concurrent Append (the member-index transpose scans set ranges on
//     several workers).
//   - Slices handed out by ForEach are owned by the store and must not be
//     modified; a spill store may hand out cached buffers it later drops, but
//     never mutates in place.
//   - Append takes ownership of the batch and its element slices.
type RRStore interface {
	// NumSets returns the number of RR sets the store holds.
	NumSets() int
	// Append adds a batch of RR sets after the existing ones, taking
	// ownership of batch. A store backed by durable media persists the batch
	// before returning.
	Append(batch [][]graph.VertexID) error
	// ForEach calls fn for every set index in [from, to) in ascending order,
	// stopping at the first error and returning it. It is the only read path:
	// a spill store decodes each non-resident segment once, in file order,
	// without entering it into its working set.
	ForEach(from, to int, fn func(i int, set []graph.VertexID) error) error
	// Stats reports the store's current footprint.
	Stats() StoreStats
	// Close releases the store's resources (file handles, mappings). Sets
	// must not be read after Close. Closing a MemStore is a no-op.
	Close() error
}

// StoreStats is an RRStore's current footprint.
type StoreStats struct {
	// Sets is the number of RR sets held.
	Sets int
	// PayloadBytes is the exact encoded size of all sets in the shared
	// record format (4-byte count + 4 bytes per vertex, per set) — the
	// payload size of a checkpoint segment, which lets WriteCheckpoint size
	// its segment header without an extra pass over the data.
	PayloadBytes int64
	// MemBytes approximates the decoded bytes resident on the heap (all sets
	// for MemStore, the cached working set for a spill store).
	MemBytes int64
	// SpillBytes is the number of bytes durably spilled to disk (0 for
	// in-memory stores).
	SpillBytes int64
}

// setBytes approximates the heap footprint of one decoded RR set: its slice
// header plus 4 bytes per vertex.
func setBytes(set []graph.VertexID) int64 { return 24 + 4*int64(len(set)) }

// MemStore is the in-memory RRStore: a plain [][]VertexID. Appends are O(1)
// amortized and ForEach walks the slice directly.
type MemStore struct {
	mu      sync.RWMutex
	sets    [][]graph.VertexID
	payload int64
	mem     int64
}

// NewMemStore returns a MemStore holding sets, taking ownership of the slice
// and its elements. nil starts an empty store.
func NewMemStore(sets [][]graph.VertexID) *MemStore {
	s := &MemStore{sets: sets}
	for _, set := range sets {
		s.payload += 4 + 4*int64(len(set))
		s.mem += setBytes(set)
	}
	return s
}

// NumSets returns the number of RR sets held.
func (s *MemStore) NumSets() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sets)
}

// Append adds batch after the existing sets, taking ownership. An empty
// store adopts its first batch rather than copying it, so a one-batch build
// holds a single slice-header array.
func (s *MemStore) Append(batch [][]graph.VertexID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sets) == 0 {
		s.sets = batch
	} else {
		s.sets = append(s.sets, batch...)
	}
	for _, set := range batch {
		s.payload += 4 + 4*int64(len(set))
		s.mem += setBytes(set)
	}
	return nil
}

// ForEach calls fn for every set index in [from, to) in ascending order.
func (s *MemStore) ForEach(from, to int, fn func(i int, set []graph.VertexID) error) error {
	s.mu.RLock()
	sets := s.sets
	s.mu.RUnlock()
	if from < 0 || to > len(sets) || from > to {
		return fmt.Errorf("core: ForEach range [%d, %d) outside [0, %d)", from, to, len(sets))
	}
	for i := from; i < to; i++ {
		if err := fn(i, sets[i]); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports the store's footprint; SpillBytes is always 0.
func (s *MemStore) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{Sets: len(s.sets), PayloadBytes: s.payload, MemBytes: s.mem}
}

// Close is a no-op: a MemStore's memory is the garbage collector's problem.
func (s *MemStore) Close() error { return nil }
