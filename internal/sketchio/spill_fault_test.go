package sketchio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
)

// faultSeed and faultBatches shape the small spill file the fault tests cut
// and corrupt: three segments of Karate RR sets, a few KB on disk.
const faultSeed = 71

var faultBatches = []int{50, 60, 70}

// threeSegmentSpill writes faultBatches through a store that keeps no sets
// and returns the file's path and bytes, the file offset at which each
// segment ends (ends[0] is the header's end), and a builder holding the same
// sets.
func threeSegmentSpill(t testing.TB) (path string, data []byte, ends []int64, b *core.SketchBuilder) {
	t.Helper()
	ig := karateGraph(t)
	path = filepath.Join(t.TempDir(), "three.spill")
	s, err := OpenSpillStore(path, checkpointMetaFor(ig, diffusion.IC, faultSeed), false)
	if err != nil {
		t.Fatal(err)
	}
	b = mustBuilder(t, ig, 1, faultSeed)
	ends = []int64{headerLen}
	for _, m := range faultBatches {
		from := b.NumSets()
		appendSets(t, b, m)
		if err := s.Append(setsRange(t, b, from, from+m)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, s.Stats().SpillBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return path, data, ends, b
}

// TestSpillReadDetectsCorruptionAfterOpen damages the middle segment of a
// store that keeps no sets after it opened, through a second file handle.
// Every read of that segment must fail — a flipped payload byte with
// ErrChecksum, an out-of-range vertex id under a recomputed CRC with
// ErrCorrupt — and so must Oracle(), while ranges inside the other segments
// still read correctly.
func TestSpillReadDetectsCorruptionAfterOpen(t *testing.T) {
	path, data, ends, b := threeSegmentSpill(t)
	ig := karateGraph(t)
	s, err := OpenSpillStore(path, checkpointMetaFor(ig, diffusion.IC, faultSeed), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	overwrite := func(off int64, p []byte) {
		t.Helper()
		if _, err := f.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	first, last := faultBatches[0], faultBatches[0]+faultBatches[1]
	damaged := func(want error) {
		t.Helper()
		for _, r := range [][2]int{{first, last}, {first + 7, first + 8}, {0, first + 1}, {last - 1, s.NumSets()}} {
			if err := s.ForEach(r[0], r[1], func(int, []graph.VertexID) error { return nil }); !errors.Is(err, want) {
				t.Errorf("ForEach(%d, %d) over the damaged segment: err = %v, want %v", r[0], r[1], err, want)
			}
		}
		ob, err := core.NewSketchBuilderFromStore(ig, diffusion.IC, 2, faultSeed, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ob.Oracle(); !errors.Is(err, want) {
			t.Errorf("Oracle() over the damaged segment: err = %v, want %v", err, want)
		}
		for _, r := range [][2]int{{0, first}, {3, 9}, {last, s.NumSets()}, {last + 10, last + 11}} {
			if got, want := storeSets(t, s, r[0], r[1]), setsRange(t, b, r[0], r[1]); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("sets [%d, %d) outside the damaged segment read back wrong", r[0], r[1])
			}
		}
	}

	payload := ends[1] + segHeaderLen
	overwrite(payload+5, []byte{data[payload+5] ^ 0x10})
	damaged(ErrChecksum)

	// The first vertex of the segment's first record, rewritten to n, with
	// the segment's CRC recomputed so only the vertex check can catch it.
	seg := slices.Clone(data[ends[1]:ends[2]])
	binary.LittleEndian.PutUint32(seg[segHeaderLen+4:], uint32(ig.NumVertices()))
	binary.LittleEndian.PutUint32(seg[len(seg)-4:], crc32.Checksum(seg[:len(seg)-4], castagnoliTab))
	overwrite(ends[1], seg)
	damaged(ErrCorrupt)
	if err := s.ForEach(first, last, func(int, []graph.VertexID) error { return nil }); errors.Is(err, ErrChecksum) {
		t.Errorf("out-of-range vertex under a valid CRC reported as a checksum mismatch: %v", err)
	}
}

// TestOpenSpillStoreRecoversAtEveryCut cuts a three-segment spill file at
// every offset from the header's end to its full size, as a crash at any
// write boundary would. Each open, in both modes, must keep exactly the whole
// segments before the cut and truncate the file to their end; a spill build
// resumed from each segment boundary and from inside each segment must
// produce the uninterrupted build's sketch bytes.
func TestOpenSpillStoreRecoversAtEveryCut(t *testing.T) {
	_, data, ends, b := threeSegmentSpill(t)
	ig := karateGraph(t)
	meta := checkpointMetaFor(ig, diffusion.IC, faultSeed)
	total := b.NumSets()
	o, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	want, wantSets := encodeOracle(t, o), setsRange(t, b, 0, total)
	dir := t.TempDir()
	cutFile := func(cut int64) string {
		t.Helper()
		path := filepath.Join(dir, "cut.spill")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for cut := ends[0]; cut <= int64(len(data)); cut++ {
		kept, sets := 0, 0
		for k := 1; k < len(ends) && ends[k] <= cut; k++ {
			kept, sets = k, sets+faultBatches[k-1]
		}
		for _, keepSets := range []bool{false, true} {
			path := cutFile(cut)
			s, err := OpenSpillStore(path, meta, keepSets)
			if err != nil {
				t.Fatalf("cut %d keepSets=%v: %v", cut, keepSets, err)
			}
			if s.NumSets() != sets {
				t.Errorf("cut %d keepSets=%v: store holds %d sets, want %d", cut, keepSets, s.NumSets(), sets)
			}
			if got := s.Stats().SpillBytes; got != ends[kept] || fileSize(t, path) != ends[kept] {
				t.Errorf("cut %d keepSets=%v: store size %d, file size %d, want %d", cut, keepSets, got, fileSize(t, path), ends[kept])
			}
			if got := storeSets(t, s, 0, s.NumSets()); !slices.EqualFunc(got, wantSets[:sets], slices.Equal) {
				t.Errorf("cut %d keepSets=%v: kept sets differ from the builder's", cut, keepSets)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for k := range ends {
		cuts := []int64{ends[k]}
		if k+1 < len(ends) {
			cuts = append(cuts, (ends[k]+ends[k+1])/2)
		}
		for _, cut := range cuts {
			rb, store, res, err := BuildSpill(context.Background(), cutFile(cut), ig, diffusion.IC, 2, faultSeed, 0, core.BuildTarget{MaxSets: total})
			if err != nil {
				t.Fatalf("resume from cut %d: %v", cut, err)
			}
			ro, err := rb.Oracle()
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Sets != total || !bytes.Equal(encodeOracle(t, ro), want) {
				t.Errorf("resume from cut %d: %d sets, sketch differs from the uninterrupted build's", cut, res.Sets)
			}
		}
	}
}

// FuzzSpillStore opens fuzzed bytes as a spill file, with the build identity
// its header names, in both store modes. Each open must fail, or keep a
// prefix of the file whose sets, read back through ForEach, equal what
// ReadCheckpoint decodes from the file cut to the kept size; both modes must
// keep the same prefix. No open may panic or allocate more than the bytes
// present allow.
func FuzzSpillStore(f *testing.F) {
	_, data, ends, _ := threeSegmentSpill(f)
	f.Add(data)
	f.Add(data[:(ends[1]+ends[2])/2])
	flipped := slices.Clone(data)
	flipped[ends[2]-1] ^= 0xff
	f.Add(flipped)
	// Hostile counts in the second segment: 2^31 RR sets, one past the
	// limit, and 2^30 sets, within every limit, each over a payload length
	// to match but far beyond the bytes present; then a first record of 2^31
	// vertices.
	for _, count := range []uint64{1 << 31, 1 << 30} {
		huge := slices.Clone(data)
		binary.LittleEndian.PutUint64(huge[ends[1]+8:], count)
		binary.LittleEndian.PutUint64(huge[ends[1]+16:], 4*count)
		f.Add(huge)
	}
	huge := slices.Clone(data)
	binary.LittleEndian.PutUint32(huge[ends[1]+segHeaderLen:], 1<<31)
	f.Add(huge)
	karate := checkpointMetaFor(karateGraph(f), diffusion.IC, faultSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // a fresh file: OpenSpillStore writes the header itself
		}
		meta := karate
		if len(data) >= headerLen {
			if m, err := parseCheckpointHeader(data[:headerLen]); err == nil {
				meta = m
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.spill")
		type kept struct {
			ok   bool
			size int64
			sets int
		}
		var modes [2]kept
		for k, keepSets := range []bool{false, true} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := OpenSpillStore(path, meta, keepSets)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20+64*uint64(len(data)) {
				t.Fatalf("keepSets=%v: opening %d bytes allocated %d bytes", keepSets, len(data), alloc)
			}
			if err != nil {
				continue
			}
			sets := storeSets(t, s, 0, s.NumSets())
			size := s.Stats().SpillBytes
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if size > int64(len(data)) || fileSize(t, path) != size {
				t.Fatalf("keepSets=%v: kept %d bytes of %d, file holds %d", keepSets, size, len(data), fileSize(t, path))
			}
			gotMeta, want, err := ReadCheckpoint(bytes.NewReader(data[:size]))
			if err != nil {
				t.Fatalf("keepSets=%v: the kept %d-byte prefix does not decode: %v", keepSets, size, err)
			}
			if gotMeta != meta || !slices.EqualFunc(sets, want, slices.Equal) {
				t.Fatalf("keepSets=%v: store read back %d sets, ReadCheckpoint decodes %d from the kept prefix", keepSets, len(sets), len(want))
			}
			modes[k] = kept{ok: true, size: size, sets: len(sets)}
		}
		if modes[0] != modes[1] {
			t.Fatalf("the modes kept different prefixes: keep none %+v, keep every set %+v", modes[0], modes[1])
		}
	})
}
