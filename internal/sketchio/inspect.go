package sketchio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"imdist/internal/core"
)

// SectionInfo describes one physical section of a sketch or checkpoint file:
// its extent, how many RR sets it carries, and whether its integrity checks
// (structure and CRC-32C) passed.
type SectionInfo struct {
	Name   string
	Offset int64
	Size   int64
	// Sets is the number of RR-set records the section carries (0 for the
	// header).
	Sets int
	// CRC is the stored CRC-32C guarding the section, when it has one: the
	// file-trailing checksum of a sketch, the per-segment checksum of a v2
	// segment.
	CRC uint32
	// OK reports whether the section decoded cleanly and its checksum (if
	// any) matched the bytes on disk.
	OK bool
	// Detail explains a failed check ("" when OK).
	Detail string
}

// FileInfo is the full Inspect report of a sketch or checkpoint file.
type FileInfo struct {
	Path    string
	Size    int64
	Version int
	Meta    CheckpointMeta // model, build seed, vertex count
	NumSets int            // total RR sets across all intact sections
	// Shard is the file's shard lineage (zero value for unsharded sketches
	// and checkpoints).
	Shard core.ShardLineage
	// Sections lists every physical section in file order.
	Sections []SectionInfo
	// Corrupt reports whether any section failed its checks.
	Corrupt bool
}

// Inspect verifies the file at path section by section — structure and
// CRC-32C both — and reports per-section extents without materializing an
// oracle. It understands version 3 sketches (header, offsets, entries,
// trailing checksum), read-only version 1 sketches (header, payload, trailing
// checksum) — either with a lineage section after the header when sharded —
// and v2 checkpoints (header plus CRC-framed segments). Memory stays O(n)
// for a sketch (the offsets section) and O(record) for a checkpoint. Damage
// is reported in the returned FileInfo, not as an error: only an unopenable
// file or one whose header is too broken to classify (wrong magic, unknown
// version, short header) returns an error.
func Inspect(path string) (*FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	info := &FileInfo{Path: path, Size: st.Size()}

	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, readErr(err)
	}
	if string(hdr[:4]) != magic {
		return nil, ErrBadMagic
	}
	info.Version = int(binary.LittleEndian.Uint16(hdr[4:]))
	switch info.Version {
	case Version, versionV1:
		inspectSketch(br, hdr, info)
	case CheckpointVersion:
		inspectV2(br, hdr, info)
	default:
		return nil, fmt.Errorf("%w: got %d, support %d and %d (sketch) and %d (checkpoint)",
			ErrVersion, info.Version, Version, versionV1, CheckpointVersion)
	}
	for _, s := range info.Sections {
		if !s.OK {
			info.Corrupt = true
		}
	}
	return info, nil
}

// inspectSketch walks a version 1 or 3 sketch, whose sections are all
// covered by a single trailing CRC-32C. It stops at the first section that
// fails, since the ones after it cannot be delimited.
func inspectSketch(br *bufio.Reader, hdr []byte, info *FileInfo) {
	crc := crc32.New(castagnoliTab)
	crc.Write(hdr)
	tee := io.TeeReader(br, crc)
	add := func(sec SectionInfo, err error) bool {
		if err != nil {
			sec.Detail = err.Error()
		}
		sec.OK = err == nil
		info.Sections = append(info.Sections, sec)
		return sec.OK
	}

	h, err := parseHeader(hdr)
	if !add(SectionInfo{Name: "header", Size: headerLen}, err) {
		return
	}
	info.Meta = CheckpointMeta{Model: h.model, Seed: h.seed, N: h.n}
	off := int64(headerLen)
	if h.sharded {
		ext := make([]byte, lineageLen)
		_, err := io.ReadFull(tee, ext)
		if err == nil {
			info.Shard, err = parseLineage(ext)
		}
		if !add(SectionInfo{Name: "lineage", Offset: off, Size: lineageLen}, readErr(err)) {
			return
		}
		off += lineageLen
	}

	if h.version == versionV1 {
		// Validate-and-discard (nil fn): multi-GB sketches verify without
		// materializing their RR sets.
		err := readRecords(tee, h.n, h.numSets, h.count, nil)
		if !add(SectionInfo{Name: "payload", Offset: off, Size: int64(h.count), Sets: h.numSets}, err) {
			return
		}
		off += int64(h.count)
	} else {
		offsets := SectionInfo{Name: "offsets", Offset: off, Size: 8 * int64(h.n+1)}
		ends, err := readOffsets(tee, h, info.Size-off)
		if !add(offsets, err) {
			return
		}
		off += offsets.Size
		entries := SectionInfo{Name: "entries", Offset: off, Size: 4 * int64(h.count), Sets: h.numSets}
		if !add(entries, checkEntries(tee, h, ends)) {
			return
		}
		off += entries.Size
	}
	info.NumSets = h.numSets

	sum := SectionInfo{Name: "checksum", Offset: off, Size: 4}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		add(sum, readErr(err))
		return
	}
	sum.CRC = binary.LittleEndian.Uint32(tail[:])
	var sumErr error
	switch {
	case sum.CRC != crc.Sum32():
		sumErr = ErrChecksum
	case !mustPeekEOF(br):
		sumErr = errors.New("trailing bytes after checksum")
	}
	add(sum, sumErr)
}

// readOffsets reads and checks a version 3 offsets section: n+1 values from
// 0 that never decrease and end at the entry count. avail is the number of
// file bytes left, so a header claiming more vertices than the file can hold
// fails before the section is allocated.
func readOffsets(r io.Reader, h header, avail int64) ([]uint64, error) {
	size := 8 * int64(h.n+1)
	if size > avail {
		return nil, errShortSketch
	}
	raw := make([]byte, size)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, readErr(err)
	}
	offsets := make([]uint64, h.n+1)
	_, _ = binary.Decode(raw, binary.LittleEndian, offsets) // sized to fit
	if offsets[0] != 0 || offsets[h.n] != h.count {
		return nil, fmt.Errorf("%w: offsets run from %d to %d, want 0 to %d", ErrCorrupt, offsets[0], offsets[h.n], h.count)
	}
	for v := range h.n {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("%w: offsets decrease at vertex %d", ErrCorrupt, v)
		}
	}
	return offsets, nil
}

// checkEntries streams a version 3 entries section in 64 KiB chunks and
// checks that each vertex's ids, delimited by the verified offsets, are
// strictly ascending and below R.
func checkEntries(r io.Reader, h header, offsets []uint64) error {
	buf := make([]byte, 1<<16)
	v, prev := 0, int32(-1)
	for pos := uint64(0); pos < h.count; {
		k := min(h.count-pos, uint64(len(buf)/4))
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return readErr(err)
		}
		for j := range k {
			for offsets[v+1] == pos {
				v, prev = v+1, -1
			}
			id := int32(binary.LittleEndian.Uint32(buf[4*j:]))
			if id <= prev || int(id) >= h.numSets {
				return fmt.Errorf("%w: member list of vertex %d has RR set %d after %d, want strictly ascending ids in [0, %d)",
					ErrCorrupt, v, id, prev, h.numSets)
			}
			prev = id
			pos++
		}
	}
	return nil
}

// inspectV2 walks a v2 checkpoint: independent CRC-framed segments until EOF.
func inspectV2(br *bufio.Reader, hdr []byte, info *FileInfo) {
	headerSection := SectionInfo{Name: "header", Offset: 0, Size: headerLen, OK: true}
	meta, err := parseCheckpointHeader(hdr)
	if err != nil {
		headerSection.OK = false
		headerSection.Detail = err.Error()
		info.Sections = append(info.Sections, headerSection)
		return
	}
	info.Meta = meta
	info.Sections = append(info.Sections, headerSection)

	off := int64(headerLen)
	for i := 0; ; i++ {
		count, size, crc, err := readSegment(br, meta.N, info.NumSets, nil)
		if err == io.EOF {
			return
		}
		sec := SectionInfo{Name: fmt.Sprintf("segment[%d]", i), Offset: off}
		if err != nil {
			// The segment boundary is lost with the framing, so this is the
			// last section Inspect can delimit: report the remainder as its
			// extent and stop.
			sec.Size = info.Size - off
			sec.Detail = err.Error()
			info.Sections = append(info.Sections, sec)
			return
		}
		sec.Size = size
		sec.Sets = count
		sec.OK = true
		sec.CRC = crc
		info.Sections = append(info.Sections, sec)
		info.NumSets += count
		off += size
	}
}

// mustPeekEOF reports whether br is exactly at EOF.
func mustPeekEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return errors.Is(err, io.EOF)
}
