package sketchio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

func writeSketchFile(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.sketch")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuiltAndLoadedRRSetsMatch: an oracle a builder finalized and the same
// sketch loaded back from its file hold only their member indexes, so RRSet
// transposes each the same way: every set lists the generated vertices in
// ascending order on both.
func TestBuiltAndLoadedRRSetsMatch(t *testing.T) {
	b := mustBuilder(t, karateGraph(t), 2, 67)
	appendSets(t, b, 3000)
	built, err := b.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "built.sketch")
	if err := WriteFile(path, built); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	loaded := m.Oracle()
	for i, set := range setsRange(t, b, 0, b.NumSets()) {
		want := slices.Sorted(slices.Values(set))
		if got := built.RRSet(i); !slices.Equal(got, want) {
			t.Fatalf("built RRSet(%d) = %v, want the generated set ascending %v", i, got, want)
		}
		if got := loaded.RRSet(i); !slices.Equal(got, want) {
			t.Fatalf("loaded RRSet(%d) = %v, want the built oracle's %v", i, got, want)
		}
	}
}

func TestOpenMappedMatchesStreamingDecode(t *testing.T) {
	o := karateOracle(t, 5000, 42)
	raw := encode(t, o)
	m, err := OpenMapped(writeSketchFile(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assertOraclesEqual(t, o, m.Oracle())
	if m.Oracle().BuildSeed() != 42 {
		t.Errorf("BuildSeed = %d, want 42", m.Oracle().BuildSeed())
	}
	// Re-encoding the mapped oracle must reproduce the file byte for byte:
	// the aliased RR sets are the file's own records.
	var buf bytes.Buffer
	if err := Encode(&buf, m.Oracle()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("re-encoded mapped sketch differs from the original file")
	}
}

// TestMappedRefcountDefersUnmap pins the copy-on-swap contract: Close with a
// query reference outstanding must not unmap; the last Release must.
func TestMappedRefcountDefersUnmap(t *testing.T) {
	o := karateOracle(t, 500, 3)
	m, err := OpenMapped(writeSketchFile(t, encode(t, o)))
	if err != nil {
		t.Fatal(err)
	}
	if !m.ZeroCopy() {
		t.Skip("platform does not support zero-copy mapping")
	}
	if !m.Acquire() {
		t.Fatal("Acquire before Close failed")
	}
	m.Close()
	if m.unmapped() {
		t.Fatal("Close unmapped while a query reference was held")
	}
	// The mapping is still valid: queries through the held reference succeed.
	if _, err := m.Oracle().Influence([]int32{0, 33}); err != nil {
		t.Fatal(err)
	}
	if m.Acquire() {
		t.Error("Acquire after Close succeeded")
	}
	m.Release()
	if !m.unmapped() {
		t.Error("last Release did not unmap")
	}
}

func TestMappedRefcountConcurrent(t *testing.T) {
	o := karateOracle(t, 2000, 9)
	m, err := OpenMapped(writeSketchFile(t, encode(t, o)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Influence([]int32{0, 33})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !m.Acquire() {
					return // closed mid-run: stop querying
				}
				got, err := m.Oracle().Influence([]int32{0, 33})
				if err != nil || got != want {
					t.Errorf("Influence = %v, %v; want %v", got, err, want)
				}
				m.Release()
			}
		}()
	}
	m.Close()
	wg.Wait()
}

// TestOpenMappedRejectsCorruption checks the aliasing decoder enforces the
// same strictness as the streaming one: truncation, bit flips and trailing
// garbage are all errors, never panics.
func TestOpenMappedRejectsCorruption(t *testing.T) {
	o := karateOracle(t, 100, 5)
	raw := encode(t, o)
	dir := t.TempDir()
	write := func(b []byte) string {
		path := filepath.Join(dir, "mut.sketch")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, cut := range []int{0, 1, headerLen - 1, headerLen, len(raw) / 2, len(raw) - 1} {
		if m, err := OpenMapped(write(raw[:cut])); err == nil {
			m.Close()
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(raw))
		}
	}
	for pos := 0; pos < len(raw); pos += 7 {
		mut := bytes.Clone(raw)
		mut[pos] ^= 1
		if m, err := OpenMapped(write(mut)); err == nil {
			m.Close()
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	if m, err := OpenMapped(write(append(bytes.Clone(raw), 0xEE))); err == nil {
		m.Close()
		t.Fatal("trailing garbage accepted by the aliasing decoder")
	} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
		t.Errorf("trailing garbage: err = %v, want corruption", err)
	}
	if _, err := OpenMapped(filepath.Join(dir, "missing.sketch")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestStructuralFaultBeatsStaleChecksum pins the precedence of the load
// checks, which run concurrently: an image with a structural fault and a
// stale checksum is ErrCorrupt, not ErrChecksum, through every loader, and
// an image whose only fault is its checksum is ErrChecksum.
func TestStructuralFaultBeatsStaleChecksum(t *testing.T) {
	o := karateOracle(t, 300, 3)
	raw := encode(t, o)
	// The last entry, before the checksum, moved to R: out of range.
	badEntry := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(badEntry[len(raw)-8:], uint32(o.NumSets()))
	// The first vertex id of the first version 1 record moved to n.
	badV1 := encodeV1(t, o)
	binary.LittleEndian.PutUint32(badV1[headerLen+4:], uint32(o.NumVertices()))
	// The build seed, which no structural check reads.
	staleSum := bytes.Clone(raw)
	staleSum[8] ^= 1
	cases := []struct {
		name      string
		data      []byte
		want, not error
	}{
		{"v3 entry out of range", badEntry, ErrCorrupt, ErrChecksum},
		{"v1 vertex out of range", badV1, ErrCorrupt, ErrChecksum},
		{"checksum only", staleSum, ErrChecksum, ErrCorrupt},
	}
	for _, c := range cases {
		path := writeSketchFile(t, c.data)
		loaders := []struct {
			name string
			load func() error
		}{
			{"OpenMapped", func() error {
				m, err := OpenMapped(path)
				if err == nil {
					m.Close()
				}
				return err
			}},
			{"ReadFile", func() error { _, err := ReadFile(path); return err }},
			{"Decode", func() error { _, err := Decode(bytes.NewReader(c.data)); return err }},
		}
		for _, l := range loaders {
			if err := l.load(); !errors.Is(err, c.want) || errors.Is(err, c.not) {
				t.Errorf("%s via %s: err = %v, want %v", c.name, l.name, err, c.want)
			}
		}
	}
}
