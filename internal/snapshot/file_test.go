package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
)

// withVersion returns a copy of a snapshot with its header's version field
// rewritten — how the tests and fuzz seeds make a file from another
// format generation (version 1 was the pre-index format).
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(out[8:], v)
	return out
}

var fileSections = []sec{
	{1, []byte("config")},
	{2, bytes.Repeat([]byte{0xC4}, 5000)},
	{8, []byte{}},
}

func checkFileReads(t *testing.T, f *File) {
	t.Helper()
	if f.Epoch() != 9 {
		t.Fatalf("epoch = %d", f.Epoch())
	}
	if got := len(f.Sections()); got != len(fileSections) {
		t.Fatalf("%d sections, want %d", got, len(fileSections))
	}
	for i, want := range fileSections {
		e := f.Sections()[i]
		if e.Kind != want.kind || e.Length != uint64(len(want.payload)) {
			t.Fatalf("table entry %d = %+v", i, e)
		}
		got, err := f.Section(want.kind)
		if err != nil {
			t.Fatalf("Section(%d): %v", want.kind, err)
		}
		if !bytes.Equal(got, want.payload) {
			t.Fatalf("Section(%d): %d bytes", want.kind, len(got))
		}
	}
	if !f.Has(2) || f.Has(42) {
		t.Fatal("Has is wrong")
	}
	if _, err := f.Section(42); !errors.Is(err, ErrNoSection) {
		t.Fatalf("absent kind: %v", err)
	}
}

func TestFileIndexedOpen(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Indexed() {
		t.Fatal("valid index not used")
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d", f.Size())
	}
	checkFileReads(t, f)
}

// indexPayloadRange locates the index section's byte range.
func indexPayloadRange(t *testing.T, data []byte) (start, end int) {
	t.Helper()
	indexOff := int(binary.BigEndian.Uint64(data[len(data)-endSize+12:]))
	if binary.BigEndian.Uint32(data[indexOff:]) != IndexKind {
		t.Fatalf("no index at %d", indexOff)
	}
	length := int(binary.BigEndian.Uint64(data[indexOff+4:]))
	return indexOff + sectionHeadSize, indexOff + sectionHeadSize + length
}

func TestFileCorruptIndexFallsBackToWalk(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	bad := append([]byte(nil), data...)
	start, _ := indexPayloadRange(t, bad)
	bad[start+2] ^= 0xFF // flip an index payload byte; sections are intact
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Indexed() {
		t.Fatal("corrupt index reported as indexed")
	}
	checkFileReads(t, f)
	if err := f.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("whole-file check of a walked table: %v", err)
	}
}

func TestFileTruncatedIndexFallsBackToWalk(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Rewrite the end marker to point the index past the file tail: the
	// index is unreachable, but the walk still serves every section.
	bad := append([]byte(nil), data...)
	off := len(bad) - endSize
	binary.BigEndian.PutUint64(bad[off+12:], uint64(len(bad)))
	fixEndCRC(bad, off)
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Indexed() {
		t.Fatal("unreachable index reported as indexed")
	}
	checkFileReads(t, f)
}

func TestFileSectionCRCVerifiedOnTouch(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Flip one byte inside section kind 2's payload. Open must succeed
	// (no payload is read), the untouched section must read fine, and the
	// corrupt one must surface ErrCorrupt on first touch.
	bad := append([]byte(nil), data...)
	bad[headerSize+sectionHeadSize+len(fileSections[0].payload)+4+sectionHeadSize+100] ^= 1
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Section(1); err != nil {
		t.Fatalf("untouched section: %v", err)
	}
	if _, err := f.Section(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt section on touch: %v", err)
	}
}

func TestFileLyingIndexDoesNotOverAllocate(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	// Patch an index entry's length to a giant value, fixing the index
	// CRC so only the bounds checks can catch it. NewFile must reject the
	// index (entry overruns it) and fall back; the walk sees the real
	// sections, so nothing allocates beyond the file.
	bad := patchIndex(t, data, func(p []byte) { binary.BigEndian.PutUint64(p[4+12:], 1<<60) })
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Indexed() {
		t.Fatal("lying index accepted")
	}
	checkFileReads(t, f)
}

// TestFileIndexDisagreesWithFrames re-seals an index whose entry records
// another CRC than the section's frame: the index is well formed, so the
// file opens through it, but the frame walk tells a different story and
// the section fails its read.
func TestFileIndexDisagreesWithFrames(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	bad := patchIndex(t, data, func(p []byte) { p[4+20] ^= 1 })
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil || !f.Indexed() {
		t.Fatalf("open: indexed %v, %v", err == nil && f.Indexed(), err)
	}
	if walked, err := f.Walk(); err != nil || slices.Equal(walked, f.Sections()) {
		t.Fatalf("walk %v agrees with a lying index", err)
	}
	if _, err := f.Section(fileSections[0].kind); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section behind a lying entry: %v", err)
	}
	if err := f.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify: %v", err)
	}
}

func TestFileConcurrentSectionReads(t *testing.T) {
	data := buildSnapshot(t, 9, fileSections...)
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range fileSections {
				got, err := f.Section(s.kind)
				if err != nil || !bytes.Equal(got, s.payload) {
					t.Errorf("Section(%d): %v", s.kind, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStreamingSectionMatchesBuffered(t *testing.T) {
	payload := bytes.Repeat([]byte{7, 1, 9}, 4321)
	var buffered, streamed bytes.Buffer
	w1, _ := NewWriter(&buffered, 5)
	if err := w1.Section(3, payload); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, _ := NewWriter(&streamed, 5)
	dst, err := w2.BeginSection(3, uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload); i += 1000 {
		if _, err := dst.Write(payload[i:min(i+1000, len(payload))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.EndSection(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed bytes differ from buffered bytes")
	}
}

func TestStreamingSectionLengthEnforced(t *testing.T) {
	w, _ := NewWriter(io.Discard, 0)
	dst, err := w.BeginSection(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Write([]byte("12345")); err == nil {
		t.Fatal("overflow accepted")
	}

	w2, _ := NewWriter(io.Discard, 0)
	dst2, err := w2.BeginSection(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.Write([]byte("123")); err != nil {
		t.Fatal(err)
	}
	if err := w2.EndSection(); err == nil {
		t.Fatal("short section accepted")
	}

	w3, _ := NewWriter(io.Discard, 0)
	if _, err := w3.BeginSection(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err == nil {
		t.Fatal("Close with open streaming section accepted")
	}
}

// readSizes records the length of every positioned read asked of ra.
type readSizes struct {
	ra    io.ReaderAt
	sizes []int
}

func (r *readSizes) ReadAt(p []byte, off int64) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.ra.ReadAt(p, off)
}

// TestSectionReaderChunks reads a section several chunks long every way a
// caller may: whole (Section), and through Open in Reads of one byte, a
// ragged few, and more than a chunk. Whatever the boundaries the bytes and
// the CRC come out the same, no positioned read exceeds sectionChunk, and
// Verify after a partial read drains the rest — so a flipped byte the
// caller never read is still ErrCorrupt.
func TestSectionReaderChunks(t *testing.T) {
	payload := make([]byte, 3*sectionChunk+12345)
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}
	data := buildSnapshot(t, 1, sec{5, payload})
	rs := &readSizes{ra: bytes.NewReader(data)}
	f, err := NewFile(rs, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Section(5); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Section: %d bytes, %v", len(got), err)
	}
	for _, step := range []int{1, 7, 4093, sectionChunk + 1} {
		r, err := f.Open(5)
		if err != nil {
			t.Fatal(err)
		}
		got, buf := make([]byte, 0, len(payload)), make([]byte, step)
		for r.Len() > 0 {
			n, err := r.Read(buf)
			if err != nil || n != min(step, len(payload)-len(got)) {
				t.Fatalf("step %d: Read at %d = %d, %v", step, len(got), n, err)
			}
			got = append(got, buf[:n]...)
		}
		if n, err := r.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("step %d: Read past the end = %d, %v", step, n, err)
		}
		if err := r.Verify(); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("step %d: Verify %v, bytes equal %v", step, err, bytes.Equal(got, payload))
		}
	}
	for _, n := range rs.sizes {
		if n > sectionChunk {
			t.Fatalf("a positioned read of %d bytes, chunk bound %d", n, sectionChunk)
		}
	}

	bad := bytes.Clone(data)
	bad[len(bad)/2] ^= 1 // two chunks in
	if f, err = NewFile(bytes.NewReader(bad), int64(len(bad))); err != nil {
		t.Fatal(err)
	}
	r, err := f.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if err := r.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Verify %d after reading 100 clean bytes of a corrupt section: %v", try, err)
		}
	}
}

// TestScanReportsVersionAndIndex checks that a current-version file opens
// through its index and that the table's first section starts right after
// the header.
func TestScanReportsVersionAndIndex(t *testing.T) {
	data := buildSnapshot(t, 3, sec{1, []byte("x")})
	if v := binary.BigEndian.Uint32(data[8:]); v != Version {
		t.Fatalf("header version = %d", v)
	}
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Indexed() {
		t.Fatal("opened without the index")
	}
	if off := f.Sections()[0].Offset; off != headerSize {
		t.Fatalf("offset = %d", off)
	}
}
