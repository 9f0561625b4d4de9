package sketchio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

func karateOracle(t testing.TB, sets int, seed uint64) *core.Oracle {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleParallelSeeded(ig, diffusion.IC, sets, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func encode(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	o := karateOracle(t, 5000, 42)
	raw := encode(t, o)
	if got, want := int64(len(raw)), EncodedSize(o); got != want {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", got, want)
	}
	loaded, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	assertOraclesEqual(t, o, loaded)
	if loaded.BuildSeed() != 42 {
		t.Errorf("BuildSeed = %d, want 42", loaded.BuildSeed())
	}
	if loaded.Model() != diffusion.IC {
		t.Errorf("Model = %v, want IC", loaded.Model())
	}
}

// assertOraclesEqual checks the acceptance bar: a loaded sketch must answer
// byte-identically to the oracle it was saved from.
func assertOraclesEqual(t *testing.T, want, got *core.Oracle) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumSets() != want.NumSets() {
		t.Fatalf("shape: got n=%d R=%d, want n=%d R=%d",
			got.NumVertices(), got.NumSets(), want.NumVertices(), want.NumSets())
	}
	for _, k := range []int{1, 2, 4, 8} {
		if !reflect.DeepEqual(got.GreedySeeds(k), want.GreedySeeds(k)) {
			t.Fatalf("GreedySeeds(%d) diverged after round trip", k)
		}
	}
	seedSets := [][]graph.VertexID{{0}, {1, 2, 3}, {0, 33}, {5, 6, 7, 8, 9}}
	for _, seeds := range seedSets {
		a, err1 := want.Influence(seeds)
		b, err2 := got.Influence(seeds)
		if err1 != nil || err2 != nil {
			t.Fatalf("Influence errors: %v, %v", err1, err2)
		}
		if a != b {
			t.Fatalf("Influence(%v): %v != %v", seeds, a, b)
		}
	}
	wv, wi := want.TopSingleVertices(5)
	gv, gi := got.TopSingleVertices(5)
	if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(wi, gi) {
		t.Fatal("TopSingleVertices diverged after round trip")
	}
}

func TestRoundTripLT(t *testing.T) {
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleForModel(ig, diffusion.LT, 2000, rng.NewXoshiro(7))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(bytes.NewReader(encode(t, o)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Model() != diffusion.LT {
		t.Errorf("Model = %v, want LT", loaded.Model())
	}
	assertOraclesEqual(t, o, loaded)
}

func TestWriteFileReadFile(t *testing.T) {
	o := karateOracle(t, 3000, 9)
	path := filepath.Join(t.TempDir(), "karate.sketch")
	if err := WriteFile(path, o); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertOraclesEqual(t, o, loaded)
	// No stray temp files left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("expected only the sketch in the temp dir, found %d entries", len(entries))
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	o := karateOracle(t, 200, 3)
	raw := encode(t, o)
	// Every proper prefix must fail with an error, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(raw))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	o := karateOracle(t, 100, 5)
	raw := encode(t, o)
	for pos := 0; pos < len(raw); pos++ {
		for bit := 0; bit < 8; bit += 3 {
			mut := bytes.Clone(raw)
			mut[pos] ^= 1 << bit
			if _, err := Decode(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	// Garbage after the checksum is ignored by Decode (streams may carry
	// framing), but garbage inside the declared sketch is not: stretch the
	// entry count and verify rejection.
	o := karateOracle(t, 50, 1)
	raw := encode(t, o)
	mut := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(mut[32:], binary.LittleEndian.Uint64(mut[32:])+4)
	if _, err := Decode(bytes.NewReader(mut)); err == nil {
		t.Fatal("stretched payload accepted")
	}
}

func TestDecodeRejectsBadHeaders(t *testing.T) {
	o := karateOracle(t, 50, 1)
	raw := encode(t, o)
	cases := []struct {
		name    string
		mutate  func(b []byte)
		wantErr error
	}{
		{"magic", func(b []byte) { b[0] = 'X' }, ErrBadMagic},
		{"version", func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 99) }, ErrVersion},
		{"model", func(b []byte) { b[6] = 7 }, ErrCorrupt},
		{"reserved", func(b []byte) { b[7] = 1 }, ErrCorrupt},
		{"zero-n", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 0) }, ErrCorrupt},
		{"huge-n", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) }, ErrCorrupt},
		{"zero-sets", func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 0) }, ErrCorrupt},
		{"payload-too-small", func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 3) }, ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mut := bytes.Clone(raw)
			c.mutate(mut)
			_, err := Decode(bytes.NewReader(mut))
			if !errors.Is(err, c.wantErr) {
				t.Errorf("err = %v, want %v", err, c.wantErr)
			}
		})
	}
}

func TestDecodeRejectsOutOfRangeVertex(t *testing.T) {
	// Hand-build a structurally valid sketch whose record references vertex
	// 9 on a 3-vertex graph, with a correct checksum, so only the bounds
	// check can catch it.
	var payload bytes.Buffer
	binary.Write(&payload, binary.LittleEndian, uint32(1))
	binary.Write(&payload, binary.LittleEndian, uint32(9))
	raw := buildSketch(t, 3, 1, payload.Bytes())
	_, err := Decode(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsOversizedRecordCount(t *testing.T) {
	// count > n is impossible for a set of distinct vertices.
	var payload bytes.Buffer
	binary.Write(&payload, binary.LittleEndian, uint32(4))
	for i := 0; i < 4; i++ {
		binary.Write(&payload, binary.LittleEndian, uint32(0))
	}
	raw := buildSketch(t, 3, 1, payload.Bytes())
	_, err := Decode(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// buildSketch assembles a syntactically well-formed version 1 sketch with a
// valid trailing checksum around an arbitrary record payload.
func buildSketch(t testing.TB, n, numSets uint64, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:], versionV1)
	binary.LittleEndian.PutUint64(hdr[16:], n)
	binary.LittleEndian.PutUint64(hdr[24:], numSets)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(payload)))
	buf.Write(hdr)
	buf.Write(payload)
	sum := crc32.Checksum(buf.Bytes(), castagnoliTab)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	buf.Write(tail[:])
	return buf.Bytes()
}

// encodeV1 renders o as a version 1 sketch, the format earlier builds wrote.
func encodeV1(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	sets := make([][]graph.VertexID, o.NumSets())
	for i := range sets {
		sets[i] = o.RRSet(i)
	}
	var payload bytes.Buffer
	if err := writeRecords(&payload, eachSet(sets)); err != nil {
		t.Fatal(err)
	}
	raw := buildSketch(t, uint64(o.NumVertices()), uint64(o.NumSets()), payload.Bytes())
	raw[6] = byte(o.Model())
	binary.LittleEndian.PutUint64(raw[8:], o.BuildSeed())
	fixCRC(raw)
	return raw
}

// shardImage returns the bytes of shard 0 of a 2-way split of o.
func shardImage(t testing.TB, o *core.Oracle) []byte {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "whole.sketch")
	if err := WriteFile(in, o); err != nil {
		t.Fatal(err)
	}
	paths, err := splitSketch(in, filepath.Join(dir, "part"), 2, o.NumSets()/2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// addDecodeSeeds seeds a decoder fuzz target with a version 3 Karate sketch,
// degenerate inputs, a sharded version 3 shard and a version 1 image.
func addDecodeSeeds(f *testing.F) {
	o := karateOracle(f, 20, 2)
	f.Add(encode(f, o))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add(shardImage(f, o))
	f.Add(encodeV1(f, o))
}

func FuzzDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoding hostile bytes must never panic; errors are expected.
		o, err := Decode(bytes.NewReader(data))
		if err == nil && o == nil {
			t.Error("nil oracle without error")
		}
	})
}

// FuzzDecodeStreamVsImage feeds the same bytes to the streaming decoder and
// to the image decoder OpenMapped and ReadFile use. The stream decoder reads
// exactly the sketch the header declares and leaves the rest unread, so it
// must agree with the image decoder on those bytes; on the whole input the
// image decoder must also reject any bytes after them.
func FuzzDecodeStreamVsImage(f *testing.F) {
	addDecodeSeeds(f)
	probes := [][]graph.VertexID{{0}, {1, 2}, {0, 5, 33}}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		streamed, streamErr := Decode(r)
		consumed := data[:len(data)-r.Len()]
		whole, _, wholeErr := decodeImage(data)
		if streamErr != nil {
			if wholeErr == nil {
				t.Fatalf("image decoder accepted what the stream decoder rejected: %v", streamErr)
			}
			return
		}
		if len(consumed) < len(data) {
			if wholeErr == nil {
				t.Fatalf("image decoder accepted %d bytes after the checksum", len(data)-len(consumed))
			}
			if whole, _, wholeErr = decodeImage(consumed); wholeErr != nil {
				t.Fatalf("image decoder rejected the sketch the stream decoder read: %v", wholeErr)
			}
		} else if wholeErr != nil {
			t.Fatalf("image decoder rejected the sketch the stream decoder read: %v", wholeErr)
		}
		if streamed.NumSets() != whole.NumSets() || streamed.ShardLineage() != whole.ShardLineage() ||
			!reflect.DeepEqual(streamed.VertexCoverage(), whole.VertexCoverage()) {
			t.Fatal("stream and image decoders built different oracles")
		}
		for _, seeds := range probes {
			a, errA := streamed.Coverage(seeds)
			b, errB := whole.Coverage(seeds)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("Coverage(%v): stream %d (%v), image %d (%v)", seeds, a, errA, b, errB)
			}
		}
	})
}

// TestDecodeHostileHeaderAllocatesLittle pins the growth rule of the stream
// decoder: a version 3 header claiming 2^31−1 vertices or 2^40 entries over a
// 100-byte body must fail without allocating anything near the claim. A
// version 1 file carries nothing per vertex, so its vertex claim is bounded
// by its payload length instead: a well-formed, checksummed v1 file of one
// 23-vertex record that claims 2^31−1 vertices must fail the same way.
func TestDecodeHostileHeaderAllocatesLittle(t *testing.T) {
	hostileV3 := func(n, sets, count uint64) []byte {
		raw := make([]byte, headerLen+100)
		copy(raw, magic)
		binary.LittleEndian.PutUint16(raw[4:], Version)
		binary.LittleEndian.PutUint64(raw[16:], n)
		binary.LittleEndian.PutUint64(raw[24:], sets)
		binary.LittleEndian.PutUint64(raw[32:], count)
		return raw
	}
	record := []uint32{23}
	for v := range uint32(23) {
		record = append(record, v)
	}
	var payload bytes.Buffer
	binary.Write(&payload, binary.LittleEndian, record)
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"vertices", hostileV3(math.MaxInt32, 1, 0)},
		{"entries", hostileV3(1<<20, 1<<20, 1<<40)},
		{"v1 vertices", buildSketch(t, math.MaxInt32, 1, payload.Bytes())},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(c.raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", c.name, len(c.raw), alloc)
		}
	}
}

// TestDecodeRejectsRepeatedVertex checks that a version 1 record listing a
// vertex twice is rejected by every loader: the oracle would otherwise count
// that RR set twice for the vertex's single-seed coverage.
func TestDecodeRejectsRepeatedVertex(t *testing.T) {
	var payload bytes.Buffer
	for _, set := range [][]uint32{{0, 0}, {2}, {3, 1}} {
		binary.Write(&payload, binary.LittleEndian, uint32(len(set)))
		binary.Write(&payload, binary.LittleEndian, set)
	}
	raw := buildSketch(t, 4, 3, payload.Bytes())
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode err = %v, want ErrCorrupt", err)
	}
	path := writeSketchFile(t, raw)
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFile err = %v, want ErrCorrupt", err)
	}
	if m, err := OpenMapped(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			m.Close()
		}
		t.Errorf("OpenMapped err = %v, want ErrCorrupt", err)
	}
}

// TestReadFileRejectsTrailingBytes checks that the file loaders treat bytes
// after the checksum as corruption, while the stream decoder leaves them
// unread.
func TestReadFileRejectsTrailingBytes(t *testing.T) {
	o := karateOracle(t, 200, 4)
	raw := append(encode(t, o), make([]byte, 8)...)
	path := writeSketchFile(t, raw)
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFile err = %v, want ErrCorrupt", err)
	}
	if m, err := OpenMapped(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			m.Close()
		}
		t.Errorf("OpenMapped err = %v, want ErrCorrupt", err)
	}
	r := bytes.NewReader(raw)
	if _, err := Decode(r); err != nil {
		t.Fatalf("Decode of a sketch followed by 8 bytes: %v", err)
	}
	if r.Len() != 8 {
		t.Errorf("Decode left %d bytes unread, want 8", r.Len())
	}
}

// TestDecodeImageCopiesMisalignedIndex covers the path big-endian hosts
// take: an image whose offsets section is not 8-byte aligned cannot be
// aliased, so its member index is decoded into heap copies.
func TestDecodeImageCopiesMisalignedIndex(t *testing.T) {
	o := karateOracle(t, 2000, 8)
	raw := encode(t, o)
	shifted := make([]byte, len(raw)+1)[1:]
	copy(shifted, raw)
	got, aliased, err := decodeImage(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if aliased {
		t.Error("a misaligned image was aliased")
	}
	assertOraclesEqual(t, o, got)
}

// TestV1SketchLoadsAndConverts checks the read-only version 1 path: every
// loader accepts a v1 file and answers like the oracle it came from, and
// saving the loaded oracle writes version 3.
func TestV1SketchLoadsAndConverts(t *testing.T) {
	o := karateOracle(t, 3000, 6)
	path := writeSketchFile(t, encodeV1(t, o))
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertOraclesEqual(t, o, loaded)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ZeroCopy() {
		t.Error("a version 1 sketch reports zero-copy")
	}
	assertOraclesEqual(t, o, m.Oracle())
	if !bytes.Equal(encode(t, m.Oracle()), encode(t, o)) {
		t.Error("re-saving a version 1 sketch does not write the version 3 bytes of its oracle")
	}
}

func BenchmarkEncode(b *testing.B) {
	o := karateOracle(b, 100000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	o := karateOracle(b, 100000, 1)
	var buf bytes.Buffer
	if err := Encode(&buf, o); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
