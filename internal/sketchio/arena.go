package sketchio

import "imdist/internal/graph"

// arenaChunkVertices is the allocation granularity of a vertexArena: chunks of
// 2^20 vertices (4 MiB) amortize allocator pressure without holding much more
// memory than the sets actually decoded.
const arenaChunkVertices = 1 << 20

// vertexArena carves RR-set backing storage out of large chunks instead of
// one allocation per set. Decoding a checkpoint with millions of small sets
// through an arena does one large allocation per ~4 MiB of payload rather
// than one per record, and the chunks are never reallocated, so every slice
// handed out stays valid for the arena's lifetime. Growth is demand-driven —
// a chunk is only allocated once earlier decoding succeeded — which keeps a
// hostile length field from requesting huge buffers up front.
type vertexArena struct {
	chunk []graph.VertexID
}

// clone returns a copy of set carved from the arena.
func (a *vertexArena) clone(set []graph.VertexID) []graph.VertexID {
	n := len(set)
	if n == 0 {
		return nil
	}
	if len(a.chunk) < n {
		a.chunk = make([]graph.VertexID, max(n, arenaChunkVertices))
	}
	out := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	copy(out, set)
	return out
}

// keep returns a readRecords callback that appends a copy of every set it is
// handed to *sets.
func (a *vertexArena) keep(sets *[][]graph.VertexID) func(int, []graph.VertexID) error {
	return func(_ int, set []graph.VertexID) error {
		*sets = append(*sets, a.clone(set))
		return nil
	}
}
