package sketchio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"imdist/internal/core"
	"imdist/internal/graph"
)

func TestLineageRoundTrip(t *testing.T) {
	o := karateOracle(t, 300, 11)
	lineage := core.ShardLineage{Index: 2, Count: 5, TotalSets: 2000}
	if err := o.SetShardLineage(lineage); err != nil {
		t.Fatal(err)
	}
	raw := encode(t, o)
	if got, want := int64(len(raw)), EncodedSize(o); got != want {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", got, want)
	}
	loaded, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.ShardLineage(); got != lineage {
		t.Errorf("decoded lineage %+v, want %+v", got, lineage)
	}
	assertOraclesEqual(t, o, loaded)

	// The mapped loader must surface the same lineage.
	path := filepath.Join(t.TempDir(), "shard.sketch")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Oracle().ShardLineage(); got != lineage {
		t.Errorf("mapped lineage %+v, want %+v", got, lineage)
	}

	// Inspect reports the lineage section and survives the shifted offsets.
	fi, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Corrupt {
		t.Fatalf("sharded sketch reported corrupt: %+v", fi.Sections)
	}
	if fi.Shard != lineage {
		t.Errorf("Inspect lineage %+v, want %+v", fi.Shard, lineage)
	}
	var names []string
	for _, sec := range fi.Sections {
		names = append(names, sec.Name)
	}
	if want := []string{"header", "lineage", "offsets", "entries", "checksum"}; !reflect.DeepEqual(names, want) {
		t.Errorf("sections = %v, want %v", names, want)
	}
}

func TestDecodeRejectsBadLineage(t *testing.T) {
	o := karateOracle(t, 300, 11)
	if err := o.SetShardLineage(core.ShardLineage{Index: 0, Count: 2, TotalSets: 600}); err != nil {
		t.Fatal(err)
	}
	raw := encode(t, o)
	corrupt := func(mutate func([]byte)) error {
		c := bytes.Clone(raw)
		mutate(c)
		// Refresh the trailing CRC so only the lineage check can fire.
		fixCRC(c)
		_, err := Decode(bytes.NewReader(c))
		return err
	}
	// Index >= count.
	if err := corrupt(func(c []byte) { c[40] = 9 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("index>=count err = %v", err)
	}
	// Zero shard count.
	if err := corrupt(func(c []byte) { c[48] = 0 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero count err = %v", err)
	}
	// Fleet total below the shard's own set count.
	if err := corrupt(func(c []byte) { c[56], c[57] = 10, 0 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("small total err = %v", err)
	}
	// Unknown flag bits are rejected even with a valid extension.
	if err := corrupt(func(c []byte) { c[7] |= 0x80 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown flag err = %v", err)
	}
}

// fixCRC recomputes the trailing CRC-32C over everything before it.
func fixCRC(c []byte) {
	sum := crc32.Checksum(c[:len(c)-4], castagnoliTab)
	binary.LittleEndian.PutUint32(c[len(c)-4:], sum)
}

// TestSplitSketchRoundTrip splits a multi-block sketch into 1–4 and 7 shards
// and compares each shard's member lists with the original's: shard i's list
// for vertex v must be the part of v's list inside the shard's set range,
// rebased to start at 0.
func TestSplitSketchRoundTrip(t *testing.T) {
	o := karateOracle(t, 1000, 7)
	dir := t.TempDir()
	in := filepath.Join(dir, "whole.sketch")
	if err := WriteFile(in, o); err != nil {
		t.Fatal(err)
	}
	offsets, entries := o.MemberIndex()
	const blockSize = 128 // 1000 sets -> 8 blocks
	for _, shards := range []int{1, 2, 3, 4, 7} {
		paths, err := splitSketch(in, filepath.Join(dir, "part"), shards, blockSize)
		if err != nil {
			t.Fatalf("split into %d: %v", shards, err)
		}
		if len(paths) != shards {
			t.Fatalf("split into %d returned %d paths", shards, len(paths))
		}
		setLo := 0
		for i, p := range paths {
			shard, err := ReadFile(p)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			l := shard.ShardLineage()
			want := core.ShardLineage{Index: i, Count: shards, TotalSets: 1000}
			if l != want {
				t.Errorf("shard %d lineage %+v, want %+v", i, l, want)
			}
			if shard.NumVertices() != o.NumVertices() || shard.Model() != o.Model() || shard.BuildSeed() != o.BuildSeed() {
				t.Errorf("shard %d identity drifted", i)
			}
			setHi := setLo + shard.NumSets()
			shardOffsets, shardEntries := shard.MemberIndex()
			for v := range o.NumVertices() {
				var wantList []int32
				for _, id := range entries[offsets[v]:offsets[v+1]] {
					if int(id) >= setLo && int(id) < setHi {
						wantList = append(wantList, id-int32(setLo))
					}
				}
				gotList := shardEntries[shardOffsets[v]:shardOffsets[v+1]]
				if !slices.Equal(gotList, wantList) {
					t.Fatalf("%d shards, shard %d, vertex %d: member list %v, want %v", shards, i, v, gotList, wantList)
				}
			}
			setLo = setHi
		}
		if setLo != 1000 {
			t.Errorf("split into %d covers %d sets, want 1000", shards, setLo)
		}
	}
}

// TestSplitCoverageMergesExactly is the distribution contract in miniature:
// summing per-shard coverage counts and dividing once by the fleet total
// reproduces the unsplit oracle's influence bit for bit.
func TestSplitCoverageMergesExactly(t *testing.T) {
	o := karateOracle(t, 1000, 13)
	dir := t.TempDir()
	in := filepath.Join(dir, "whole.sketch")
	if err := WriteFile(in, o); err != nil {
		t.Fatal(err)
	}
	paths, err := splitSketch(in, filepath.Join(dir, "part"), 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []graph.VertexID{0, 33, 5}
	var hits int64
	for _, p := range paths {
		shard, err := ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := shard.Coverage(seeds)
		if err != nil {
			t.Fatal(err)
		}
		hits += c
	}
	merged := float64(o.NumVertices()) * float64(hits) / float64(1000)
	want, err := o.Influence(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if merged != want {
		t.Errorf("merged influence %v, want %v", merged, want)
	}
}

func TestSplitSketchErrors(t *testing.T) {
	o := karateOracle(t, 256, 3)
	dir := t.TempDir()
	in := filepath.Join(dir, "whole.sketch")
	if err := WriteFile(in, o); err != nil {
		t.Fatal(err)
	}
	// More shards than blocks.
	if _, err := splitSketch(in, filepath.Join(dir, "p"), 5, 64); !errors.Is(err, ErrTooManyShards) {
		t.Errorf("overslice err = %v", err)
	}
	// Nonsense shard count.
	if _, err := splitSketch(in, filepath.Join(dir, "p"), 0, 64); err == nil {
		t.Error("0 shards accepted")
	}
	// Splitting a shard again is refused.
	paths, err := splitSketch(in, filepath.Join(dir, "p"), 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := splitSketch(paths[0], filepath.Join(dir, "q"), 2, 64); !errors.Is(err, ErrAlreadySharded) {
		t.Errorf("re-split err = %v", err)
	}
	// A corrupt input yields no outputs.
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	bad := filepath.Join(dir, "bad.sketch")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := splitSketch(bad, filepath.Join(dir, "r"), 2, 64); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt input err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "r.shard0-of-2")); !os.IsNotExist(err) {
		t.Error("corrupt split left shard 0 behind")
	}
}

// TestSplitDefaultBlockAlignment exercises the exported entry point: with
// fewer sets than one default block only a single shard is possible.
func TestSplitDefaultBlockAlignment(t *testing.T) {
	o := karateOracle(t, 100, 2)
	dir := t.TempDir()
	in := filepath.Join(dir, "whole.sketch")
	if err := WriteFile(in, o); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitSketch(in, filepath.Join(dir, "p"), 2); !errors.Is(err, ErrTooManyShards) {
		t.Errorf("2 shards of a sub-block sketch err = %v", err)
	}
	paths, err := SplitSketch(in, filepath.Join(dir, "p"), 1)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := shard.ShardLineage(); got != (core.ShardLineage{Index: 0, Count: 1, TotalSets: 100}) {
		t.Errorf("1-shard lineage = %+v", got)
	}
	assertOraclesEqual(t, o, shard)
}
