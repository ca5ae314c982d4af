package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// buildSnapshot writes a small snapshot with the given sections.
func buildSnapshot(t *testing.T, epoch int64, sections ...Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if err := w.Section(s.Kind, s.Payload); err != nil {
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

func TestRoundTrip(t *testing.T) {
	sections := []Section{
		{Kind: 1, Payload: []byte("config")},
		{Kind: 2, Payload: bytes.Repeat([]byte{0xAB}, 3000)},
		{Kind: 7, Payload: nil}, // empty payloads are legal
	}
	data := buildSnapshot(t, 42, sections...)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 42 {
		t.Fatalf("epoch = %d, want 42", r.Epoch())
	}
	for i, want := range sections {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("section %d: got kind %d len %d", i, got.Kind, len(got.Payload))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last section: %v, want io.EOF", err)
	}
	// Exhausted readers stay at EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("re-read after EOF: %v", err)
	}
}

func TestScan(t *testing.T) {
	data := buildSnapshot(t, 7, Section{Kind: 3, Payload: []byte("abc")}, Section{Kind: 9, Payload: []byte("defg")})
	info, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 7 {
		t.Fatalf("epoch = %d", info.Epoch)
	}
	if len(info.Sections) != 2 || info.Sections[0].Kind != 3 || info.Sections[1].Length != 4 {
		t.Fatalf("sections = %+v", info.Sections)
	}
	if info.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, file is %d", info.Bytes, len(data))
	}
}

func TestReservedKind(t *testing.T) {
	w, err := NewWriter(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section(EndKind, nil); err == nil {
		t.Fatal("kind 0 accepted")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	data := buildSnapshot(t, 0, Section{Kind: 1, Payload: []byte("x")})

	bad := append([]byte(nil), data...)
	copy(bad, "NOTASNAP")
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	// Version 2 is the only dialect: the pre-index version 1 is refused
	// like a future one, by the sequential and the random-access reader.
	for _, v := range []uint32{1, Version + 1} {
		bad = withVersion(data, v)
		if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("NewReader, version %d: %v", v, err)
		}
		if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("NewFile, version %d: %v", v, err)
		}
	}
}

// readAll pulls every section, returning the first error.
func readAll(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func TestTruncation(t *testing.T) {
	data := buildSnapshot(t, 1, Section{Kind: 1, Payload: bytes.Repeat([]byte{1}, 100)})
	// Every possible truncation point must error (wrapping ErrCorrupt),
	// never panic and never read as valid.
	for n := 0; n < len(data); n++ {
		if err := readAll(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	if err := readAll(data); err != nil {
		t.Fatalf("intact file: %v", err)
	}
}

func TestFlippedBytes(t *testing.T) {
	data := buildSnapshot(t, 1, Section{Kind: 1, Payload: []byte("hello, snapshot")})
	// Flipping any byte after the header must surface as ErrCorrupt: the
	// payload and the end marker are both CRC-framed, and the section
	// header is implicitly covered (a flipped kind/length desynchronizes
	// the stream into a CRC or truncation failure).
	for i := headerSize; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := readAll(bad); err == nil {
			t.Fatalf("flip at byte %d read as valid", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestLyingLengthDoesNotOverAllocate(t *testing.T) {
	data := buildSnapshot(t, 1, Section{Kind: 1, Payload: []byte("tiny")})
	// Rewrite the section length to claim ~16 EiB. The reader must fail
	// with a truncation error after at most one chunk of allocation.
	bad := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(bad[headerSize+4:], 1<<60)
	before := testing.AllocsPerRun(1, func() {
		if err := readAll(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lying length: %v", err)
		}
	})
	_ = before // the run itself completing (no OOM) is the assertion
}

func TestWrongSectionCount(t *testing.T) {
	data := buildSnapshot(t, 1, Section{Kind: 1, Payload: []byte("a")}, Section{Kind: 2, Payload: []byte("b")})
	// Patch the end marker count from 2 to 3 and fix its CRC so only the
	// count check can catch it.
	bad := append([]byte(nil), data...)
	off := len(bad) - endSize
	binary.BigEndian.PutUint64(bad[off+4:], 3)
	fixEndCRC(bad, off)
	if err := readAll(bad); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "counts 3") {
		t.Fatalf("wrong count: %v", err)
	}
}

// fixEndCRC recomputes the v2 end marker's CRC exactly as Close does.
func fixEndCRC(data []byte, off int) {
	binary.BigEndian.PutUint32(data[off+20:], crc32.ChecksumIEEE(data[off:off+20]))
}
