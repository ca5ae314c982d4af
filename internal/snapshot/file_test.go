package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

var fileSections = []Section{
	{Kind: 1, Payload: []byte("config")},
	{Kind: 2, Payload: bytes.Repeat([]byte{0xC4}, 5000)},
	{Kind: 8, Payload: []byte{}},
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
		if e.Kind != want.Kind || e.Length != uint64(len(want.Payload)) {
			t.Fatalf("table entry %d = %+v", i, e)
		}
		got, err := f.Section(want.Kind)
		if err != nil {
			t.Fatalf("Section(%d): %v", want.Kind, err)
		}
		if !bytes.Equal(got, want.Payload) {
			t.Fatalf("Section(%d): %d bytes", want.Kind, len(got))
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

	// The strict sequential paths must still reject the file outright.
	if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequential read of corrupt index: %v", err)
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
	bad[headerSize+sectionHeadSize+len(fileSections[0].Payload)+4+sectionHeadSize+100] ^= 1
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
	bad := append([]byte(nil), data...)
	start, end := indexPayloadRange(t, bad)
	binary.BigEndian.PutUint64(bad[start+4+12:], 1<<60)
	var head [sectionHeadSize]byte
	copy(head[:], bad[start-sectionHeadSize:start])
	binary.BigEndian.PutUint32(bad[end:], sectionCRC(head, bad[start:end]))
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Indexed() {
		t.Fatal("lying index accepted")
	}
	checkFileReads(t, f)
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
				got, err := f.Section(s.Kind)
				if err != nil || !bytes.Equal(got, s.Payload) {
					t.Errorf("Section(%d): %v", s.Kind, err)
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
	data := buildSnapshot(t, 1, Section{Kind: 5, Payload: payload})
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

func TestScanReportsVersionAndIndex(t *testing.T) {
	data := buildSnapshot(t, 3, Section{Kind: 1, Payload: []byte("x")})
	info, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version || !info.Indexed {
		t.Fatalf("version=%d indexed=%v", info.Version, info.Indexed)
	}
	if info.Sections[0].Offset != headerSize {
		t.Fatalf("offset = %d", info.Sections[0].Offset)
	}
}
