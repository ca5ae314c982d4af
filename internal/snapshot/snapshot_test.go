package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sec is one section a test writes.
type sec struct {
	kind    uint32
	payload []byte
}

// buildSnapshot writes a small snapshot with the given sections.
func buildSnapshot(t testing.TB, epoch int64, sections ...sec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if err := w.Section(s.kind, s.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, wrote %d", w.Bytes(), buf.Len())
	}
	return buf.Bytes()
}

// strict opens data and runs the whole-file check, as spvsnap info does.
func strict(data []byte) error {
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	return f.Verify()
}

// TestRoundTrip writes sections (an empty one included) and reads back the
// header, a table that the index and the frame walk agree on, and every
// payload through a full CRC pass.
func TestRoundTrip(t *testing.T) {
	data := buildSnapshot(t, 42, sec{1, []byte("config")}, sec{2, bytes.Repeat([]byte{0xAB}, 3000)}, sec{7, nil})
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 42 || !f.Indexed() || f.Size() != int64(len(data)) {
		t.Fatalf("epoch %d, indexed %v, size %d of %d", f.Epoch(), f.Indexed(), f.Size(), len(data))
	}
	table := f.Sections()
	if len(table) != 3 || table[0].Offset != headerSize || table[1].Length != 3000 || table[2].Kind != 7 {
		t.Fatalf("table = %+v", table)
	}
	if walked, err := f.Walk(); err != nil || !slices.Equal(walked, table) {
		t.Fatalf("walk = %+v, %v; index = %+v", walked, err, table)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestScan checks what spvsnap info reports of a file: epoch, section
// table and size, with every payload's CRC re-verified.
func TestScan(t *testing.T) {
	data := buildSnapshot(t, 7, sec{3, []byte("abc")}, sec{9, []byte("defg")})
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 7 {
		t.Fatalf("epoch = %d", f.Epoch())
	}
	if table := f.Sections(); len(table) != 2 || table[0].Kind != 3 || table[1].Length != 4 {
		t.Fatalf("sections = %+v", table)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, file is %d", f.Size(), len(data))
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// patchIndex rewrites the index payload of a copy of data through edit and
// re-seals its CRC, so only the index's own checks can catch the lie.
func patchIndex(t *testing.T, data []byte, edit func(payload []byte)) []byte {
	t.Helper()
	bad := bytes.Clone(data)
	start, end := indexPayloadRange(t, bad)
	edit(bad[start:end])
	crc := crc32.Update(crc32.ChecksumIEEE(bad[start-sectionHeadSize:start]), crc32.IEEETable, bad[start:end])
	binary.BigEndian.PutUint32(bad[end:], crc)
	return bad
}

func TestReservedKind(t *testing.T) {
	for _, kind := range []uint32{EndKind, IndexKind} {
		w, err := NewWriter(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Section(kind, nil); err == nil {
			t.Fatalf("kind %#x accepted", kind)
		}
	}
	// An index entry claiming a reserved kind is refused; the walk serves.
	data := buildSnapshot(t, 9, fileSections...)
	for _, kind := range []uint32{EndKind, IndexKind} {
		f, err := NewFile(bytes.NewReader(patchIndex(t, data, func(p []byte) {
			binary.BigEndian.PutUint32(p[4:], kind)
		})), int64(len(data)))
		if err != nil || f.Indexed() {
			t.Fatalf("index entry of kind %#x: indexed %v, %v", kind, err == nil && f.Indexed(), err)
		}
		checkFileReads(t, f)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	data := buildSnapshot(t, 0, sec{1, []byte("x")})
	bad := bytes.Clone(data)
	copy(bad, "NOTASNAP")
	if err := strict(bad); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Version 2 is the only dialect: the pre-index version 1 is refused
	// like a future one.
	for _, v := range []uint32{1, Version + 1} {
		if err := strict(withVersion(data, v)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: %v", v, err)
		}
	}
}

func TestTruncation(t *testing.T) {
	data := buildSnapshot(t, 1, sec{1, bytes.Repeat([]byte{1}, 100)}, sec{2, []byte("b")})
	// Every truncation point — each frame boundary among them — must fail
	// the open itself (wrapping ErrCorrupt), never panic and never read as
	// valid: the tail is no end marker, and the walk runs off the file.
	for n := 0; n < len(data); n++ {
		if _, err := NewFile(bytes.NewReader(data[:n]), int64(n)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	if err := strict(data); err != nil {
		t.Fatalf("intact file: %v", err)
	}
}

func TestFlippedBytes(t *testing.T) {
	data := buildSnapshot(t, 1, sec{1, []byte("hello, snapshot")}, sec{3, []byte("two")})
	// Flipping any byte after the header must surface as ErrCorrupt: a
	// payload, kind, length or CRC byte fails the section's CRC or its
	// match with the table, an index byte leaves no usable index, an end
	// marker byte fails its CRC.
	for i := headerSize; i < len(data); i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x40
		if err := strict(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestLyingLengthDoesNotOverAllocate(t *testing.T) {
	data := buildSnapshot(t, 1, sec{1, []byte("tiny")})
	// Rewrite the section's length to claim ~1 EiB. The index still maps
	// the section, so the open succeeds; reading it and walking the frames
	// must both fail without allocating anywhere near the claim.
	bad := bytes.Clone(data)
	binary.BigEndian.PutUint64(bad[headerSize+4:], 1<<60)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying length, read: %v", err)
	}
	if _, err := f.Walk(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying length, walk: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("lying length allocated %d bytes", grew)
	}
}

func TestWrongSectionCount(t *testing.T) {
	data := buildSnapshot(t, 1, sec{1, []byte("a")}, sec{2, []byte("b")})
	// Patch the end marker count from 2 to 3 and fix its CRC so only the
	// count checks can catch it: the index disagrees, so does the walk.
	bad := bytes.Clone(data)
	off := len(bad) - endSize
	binary.BigEndian.PutUint64(bad[off+4:], 3)
	fixEndCRC(bad, off)
	if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "counts 3") {
		t.Fatalf("wrong count: %v", err)
	}
}

// fixEndCRC recomputes the v2 end marker's CRC exactly as Close does.
func fixEndCRC(data []byte, off int) {
	binary.BigEndian.PutUint32(data[off+20:], crc32.ChecksumIEEE(data[off:off+20]))
}
