package core

import (
	"fmt"
	"slices"
	"testing"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// The member-index passes (transpose, check, pack) run on worker goroutines.
// These tests pin them to the serial reference passes below: the same
// offsets, entries, packed words and error text at every worker count.

var indexTestWorkers = []int{1, 2, 3, 8}

// serialTranspose is the reference transpose: count every vertex over all
// sets in order, prefix-sum, then fill in RR-set order.
func serialTranspose(n, numSets int, store RRStore) ([]uint64, []int32, error) {
	offsets := make([]uint64, n+1)
	err := store.ForEach(0, numSets, func(i int, set []graph.VertexID) error {
		for _, v := range set {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("core: RR set %d contains vertex %d outside [0, %d)", i, v, n)
			}
			offsets[v+1]++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for v := range n {
		offsets[v+1] += offsets[v]
	}
	entries := make([]int32, offsets[n])
	next := slices.Clone(offsets[:n])
	err = store.ForEach(0, numSets, func(i int, set []graph.VertexID) error {
		for _, v := range set {
			entries[next[v]] = int32(i)
			next[v]++
		}
		return nil
	})
	return offsets, entries, err
}

// serialCheck is the reference check: one walk over the vertices in order,
// each list entry by entry.
func serialCheck(n, numSets int, offsets []uint64, entries []int32) error {
	if len(offsets) != n+1 || offsets[0] != 0 || offsets[n] != uint64(len(entries)) {
		return fmt.Errorf("core: member index offsets must be %d values from 0 to %d", n+1, len(entries))
	}
	for v := range n {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo || hi > uint64(len(entries)) {
			return fmt.Errorf("core: member list of vertex %d spans [%d, %d) outside [%d, %d]", v, lo, hi, lo, len(entries))
		}
		prev := int32(-1)
		for _, id := range entries[lo:hi] {
			if id <= prev || int(id) >= numSets {
				if id == prev {
					return fmt.Errorf("core: RR set %d lists vertex %d twice", id, v)
				}
				return fmt.Errorf("core: member list of vertex %d has RR set %d after %d, want strictly ascending ids in [0, %d)", v, id, prev, numSets)
			}
			prev = id
		}
	}
	return nil
}

// serialPackWords is the reference pack: every entry placed by division.
func serialPackWords(n, numSets, shardSize int, offsets []uint64, entries []int32) []uint64 {
	var blockStart, blockWords []int
	start := 0
	for lo := 0; lo < numSets; lo += shardSize {
		w := (min(shardSize, numSets-lo) + 63) / 64
		blockStart, blockWords = append(blockStart, start), append(blockWords, w)
		start += n * w
	}
	words := make([]uint64, start)
	for v := range n {
		for _, idx := range entries[offsets[v]:offsets[v+1]] {
			b, off := int(idx)/shardSize, int(idx)%shardSize
			words[blockStart[b]+v*blockWords[b]+off/64] |= 1 << (off % 64)
		}
	}
	return words
}

// randomRRSets draws numSets RR sets over n vertices. Vertex 0 is in every
// set, vertex n-1 and every vertex ≡ 3 (mod 7) in none, and the rest each
// join a set with probability density, in shuffled order.
func randomRRSets(n, numSets int, density float64, seed uint64) [][]graph.VertexID {
	src := rng.NewXoshiro(seed)
	sets := make([][]graph.VertexID, numSets)
	for i := range sets {
		set := []graph.VertexID{0}
		for v := 1; v < n-1; v++ {
			if v%7 != 3 && src.Float64() < density {
				set = append(set, graph.VertexID(v))
			}
		}
		for j := len(set) - 1; j > 0; j-- {
			k := src.Intn(j + 1)
			set[j], set[k] = set[k], set[j]
		}
		sets[i] = set
	}
	return sets
}

// indexTestShapes are the (n, R, density) pools the differential tests run
// on: set counts on both sides of 64 and of the 100- and 128-set shard
// widths, sparse and dense.
var indexTestShapes = []struct {
	n, numSets int
	density    float64
}{
	{5, 1, 0.5},
	{12, 63, 0.5},
	{12, 64, 0.9},
	{12, 65, 0.3},
	{40, 100, 0.4},
	{40, 127, 0.6},
	{40, 129, 0.2},
	{64, 257, 0.5},
	{300, 700, 0.05},
}

func TestTransposeStoreMatchesSerial(t *testing.T) {
	for si, sh := range indexTestShapes {
		store := NewMemStore(randomRRSets(sh.n, sh.numSets, sh.density, uint64(100+si)))
		wantOff, wantEnt, err := serialTranspose(sh.n, sh.numSets, store)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range indexTestWorkers {
			off, ent, err := transposeStore(sh.n, sh.numSets, store, w)
			if err != nil {
				t.Fatalf("n=%d R=%d workers=%d: %v", sh.n, sh.numSets, w, err)
			}
			if !slices.Equal(off, wantOff) || !slices.Equal(ent, wantEnt) {
				t.Errorf("n=%d R=%d workers=%d: member index differs from the serial transpose", sh.n, sh.numSets, w)
			}
		}
	}
}

// TestTransposeStoreReportsLowestBadSet plants vertex ids outside [0, n) in
// several sets; every worker count must report the lowest one, in the serial
// pass's words.
func TestTransposeStoreReportsLowestBadSet(t *testing.T) {
	const n, numSets = 30, 400
	for _, bad := range [][]int{{399}, {0}, {150, 380}, {270, 90, 91}} {
		sets := randomRRSets(n, numSets, 0.5, 7)
		for k, i := range bad {
			sets[i] = append(slices.Clone(sets[i]), graph.VertexID(n+k))
		}
		sets[bad[len(bad)-1]] = append(sets[bad[len(bad)-1]], -1)
		store := NewMemStore(sets)
		_, _, want := serialTranspose(n, numSets, store)
		if want == nil {
			t.Fatal("serial transpose accepted a bad vertex")
		}
		for _, w := range indexTestWorkers {
			if _, _, err := transposeStore(n, numSets, store, w); err == nil || err.Error() != want.Error() {
				t.Errorf("bad sets %v, workers=%d: err = %v, want %v", bad, w, err, want)
			}
			if _, err := newOracleFromStore(n, diffusion.IC, 0, store, w); err == nil || err.Error() != want.Error() {
				t.Errorf("bad sets %v, workers=%d: oracle err = %v, want %v", bad, w, err, want)
			}
		}
	}
}

func TestPackMatchesSerial(t *testing.T) {
	for si, sh := range indexTestShapes {
		o, err := NewOracleFromRRSets(sh.n, diffusion.IC, 0, randomRRSets(sh.n, sh.numSets, sh.density, uint64(200+si)))
		if err != nil {
			t.Fatal(err)
		}
		offsets, entries := o.MemberIndex()
		for _, shard := range []int{64, 100, 128, DefaultBatchShardSize} {
			want := serialPackWords(sh.n, sh.numSets, shard, offsets, entries)
			for _, w := range indexTestWorkers {
				m := newBitMatrix(sh.n, sh.numSets, shard, offsets, entries, w)
				if !slices.Equal(m.words, want) {
					t.Errorf("n=%d R=%d shard=%d workers=%d: packed words differ from the serial pack", sh.n, sh.numSets, shard, w)
				}
			}
		}
	}
}

// checkAllWorkers runs checkMemberIndex at every test worker count and
// requires the serial reference's result, error text included.
func checkAllWorkers(t *testing.T, name string, n, numSets int, offsets []uint64, entries []int32) {
	t.Helper()
	want := serialCheck(n, numSets, offsets, entries)
	for _, w := range indexTestWorkers {
		got := checkMemberIndex(n, numSets, offsets, entries, w)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s, workers=%d: err = %v, want %v", name, w, got, want)
		}
	}
}

func TestCheckMemberIndexMatchesSerial(t *testing.T) {
	for _, c := range brokenMemberIndexes {
		checkAllWorkers(t, c.name, 3, 2, c.offsets, c.entries)
	}
	for si, sh := range indexTestShapes {
		o, err := NewOracleFromRRSets(sh.n, diffusion.IC, 0, randomRRSets(sh.n, sh.numSets, sh.density, uint64(300+si)))
		if err != nil {
			t.Fatal(err)
		}
		offsets, entries := o.MemberIndex()
		checkAllWorkers(t, fmt.Sprintf("valid n=%d R=%d", sh.n, sh.numSets), sh.n, sh.numSets, offsets, entries)
		if len(entries) < 2 {
			continue
		}
		// Corrupt copies: one or two faults of every kind, anywhere.
		src := rng.NewXoshiro(uint64(400 + si))
		for trial := range 60 {
			off, ent := slices.Clone(offsets), slices.Clone(entries)
			for range 1 + trial%2 {
				j := 1 + src.Intn(len(ent)-1)
				switch src.Intn(5) {
				case 0: // an id anywhere in [-3, R+3)
					ent[j] = int32(src.Intn(sh.numSets+6) - 3)
				case 1: // a repeated id
					ent[j] = ent[j-1]
				case 2: // two ids swapped
					ent[j], ent[j-1] = ent[j-1], ent[j]
				case 3: // an offset moved, possibly past its neighbours or E
					v := 1 + src.Intn(sh.n-1)
					off[v] = uint64(max(0, int(off[v])+src.Intn(9)-4))
				case 4: // an offset past the entries
					off[1+src.Intn(sh.n-1)] = uint64(len(ent) + 1 + src.Intn(3))
				}
			}
			checkAllWorkers(t, fmt.Sprintf("n=%d R=%d trial %d", sh.n, sh.numSets, trial), sh.n, sh.numSets, off, ent)
		}
	}
}

// TestCheckMemberIndexListFaultBeatsLaterSpan pins the precedence of the
// two-phase check: a list fault below the first bad span wins, a list fault
// above it loses.
func TestCheckMemberIndexListFaultBeatsLaterSpan(t *testing.T) {
	// Vertex 1's list repeats an id; vertex 3's span runs backwards.
	offsets := []uint64{0, 1, 3, 5, 4, 6}
	entries := []int32{0, 2, 2, 0, 1, 1}
	checkAllWorkers(t, "list fault first", 5, 4, offsets, entries)
	if err := checkMemberIndex(5, 4, offsets, entries, 8); err == nil || err.Error() != "core: RR set 2 lists vertex 1 twice" {
		t.Errorf("err = %v, want vertex 1's repeated id", err)
	}
	// The same span fault with the repeat moved past it.
	entries = []int32{0, 1, 2, 0, 1, 1}
	checkAllWorkers(t, "span fault first", 5, 4, offsets, entries)
	if err := checkMemberIndex(5, 4, offsets, entries, 8); err == nil || err.Error() != "core: member list of vertex 3 spans [5, 4) outside [5, 6]" {
		t.Errorf("err = %v, want vertex 3's span", err)
	}
}

// benchmarkIndexPass times one member-index pass serially and on all CPUs
// over the generated BA oracle of the greedy benchmark (n=2000, 2^16 dense
// RR sets), small enough for a one-iteration bench smoke.
func benchmarkIndexPass(b *testing.B, pass func(o *Oracle, workers int) error) {
	o, err := baGreedyOracle()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, -1} {
		name := "workers=1"
		if workers < 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				if err := pass(o, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPackIndex(b *testing.B) {
	benchmarkIndexPass(b, func(o *Oracle, workers int) error {
		newBitMatrix(o.n, o.numSets, DefaultBatchShardSize, o.offsets, o.entries, workers)
		return nil
	})
}

func BenchmarkCheckMemberIndex(b *testing.B) {
	benchmarkIndexPass(b, func(o *Oracle, workers int) error {
		return checkMemberIndex(o.n, o.numSets, o.offsets, o.entries, workers)
	})
}

func BenchmarkTransposeStore(b *testing.B) {
	o, err := baGreedyOracle()
	if err != nil {
		b.Fatal(err)
	}
	// The oracle keeps only its index; transpose it back into a store once.
	store := NewMemStore(o.transposeIndex())
	benchmarkIndexPass(b, func(o *Oracle, workers int) error {
		_, _, err := transposeStore(o.n, o.numSets, store, workers)
		return err
	})
}
