// Package lockscope is an imvet fixture reproducing the PR 6 bug class: an
// exported method on a mutex-holding type returning its internal slice, so
// callers keep a live alias into state the lock stops protecting the moment
// the method returns.
package lockscope

import "sync"

// builder mirrors the historical core.SketchBuilder shape whose Sets()
// handed out the internal top-level slice while AppendBatch kept growing it.
type builder struct {
	mu   sync.Mutex
	sets [][]int
	tags map[string]int
}

// Sets is the PR 6 bug, verbatim in miniature.
func (b *builder) Sets() [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets // want `Sets returns internal slice sets of mutex-guarded builder`
}

// Set leaks an element of the guarded slice-of-slices: the top level is not
// returned, but the alias into shared backing arrays is just as live.
func (b *builder) Set(i int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets[i] // want `Set returns internal slice sets\[\.\.\.\] of mutex-guarded builder`
}

// Tags leaks a guarded map; the method not even locking makes it worse, and
// the analyzer flags it regardless.
func (b *builder) Tags() map[string]int {
	return b.tags // want `Tags returns internal map tags of mutex-guarded builder`
}

// SetsCopy is the fix PR 6 shipped: fresh top-level slice per call.
func (b *builder) SetsCopy() [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]int, len(b.sets))
	copy(out, b.sets)
	return out
}

// Peek documents a zero-copy read-only contract; the annotation records the
// justification where the aliasing happens.
func (b *builder) Peek() [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets //imvet:allow lockscope — documented read-only snapshot, callers must not mutate
}

// sets0 is unexported: internal helpers may pass guarded state between
// methods of the same type; the exported API boundary is what is policed.
func (b *builder) sets0() [][]int { return b.sets }

// Count returns a scalar: nothing aliases.
func (b *builder) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sets)
}

// plain holds no mutex, so handing out its slice is not lockscope's
// business (ownership may still be documented, but no lock is subverted).
type plain struct{ xs []int }

// Xs returns the internal slice of an unguarded type.
func (p *plain) Xs() []int { return p.xs }
