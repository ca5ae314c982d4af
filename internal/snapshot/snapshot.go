// Package snapshot implements the container format for persistent ADS
// snapshots: a versioned, length-prefixed, CRC-checked sequence of sections
// that serializes a complete outsourced deployment to one file. The format
// layer is deliberately dumb — it frames opaque section payloads and
// guarantees their integrity; what the payloads mean (graph, Merkle levels,
// hint rows, signatures) is the concern of internal/core, which owns the
// section kinds and their sub-encodings.
//
// # File layout
//
// All integers are big-endian. A snapshot is
//
//	header | section* | index | end marker
//
//	header:   magic "SPVSNAP1" (8) | version u32 | flags u32 | epoch i64
//	section:  kind u32 | length u64 | payload[length] | crc u32
//	index:    kind 0xFFFFFFFF | length u64 | count u32 |
//	          count × (kind u32, offset u64, length u64, crc u32) | crc u32
//	end:      kind 0 | count u64 | indexOff u64 | crc u32
//
// Each section's crc is CRC-32 (IEEE) over its 12-byte kind+length prefix
// followed by its payload, so a flipped kind or length byte is caught as
// surely as payload corruption. The index is framed exactly like a section
// (under the reserved kind IndexKind) and records every preceding
// section's file offset, length and crc — the random-access map that lets
// a File open in O(sections) and read one payload with one pread. The end
// marker's crc covers its kind+count+indexOff prefix; its count must equal
// the number of payload sections written (the index is not counted), and
// indexOff must point at the index, so silent truncation at a section
// boundary is detected as reliably as mid-payload corruption. Kind 0 is
// reserved for the end marker and kind 0xFFFFFFFF for the index; payload
// semantics for other kinds belong to the producing layer.
//
// File is the one reader. It opens through the index and falls back to a
// frame walk — reading only section heads, never payloads — when the index
// is corrupt; Walk runs that walk on demand, so an auditor can compare the
// two tables, and Verify streams every payload through its CRC.
//
// # Version and compatibility rules
//
// Version is bumped whenever any payload encoding changes shape — the
// format carries precomputed Merkle digests, so there is no such thing as
// a tolerant re-interpretation: a reader either understands a version
// exactly or refuses it. Unknown section kinds within a known version are
// listed by File (inspection) but are an error for semantic loaders,
// which must not silently drop state they do not understand.
//
// # Robustness
//
// Readers never trust a declared length: File validates every index
// offset and length against the real file size before allocating, so a
// lying length field cannot translate into a giant speculative
// allocation. Corruption — flipped payload bytes, truncated files, wrong
// section counts, a lying index — is reported as an error wrapping
// ErrCorrupt, never a panic. A payload read through File is CRC-verified
// at read time (first touch), so lazy loaders surface corruption as a
// clean error from the query that first needs the section.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the snapshot format version writers emit and the only one
// readers accept.
const Version = 2

// magic identifies snapshot files; the trailing "1" is a human-visible
// format generation, distinct from the finer-grained version field.
const magic = "SPVSNAP1"

// EndKind is the reserved section kind of the end marker. Producing layers
// must number their sections from 1.
const EndKind = 0

// IndexKind is the reserved section kind of the trailing index. File
// validates and consumes it internally; it is never surfaced as a payload
// section.
const IndexKind = 0xFFFFFFFF

// ErrCorrupt tags every integrity failure a reader can detect: bad magic,
// unsupported version, truncation, CRC mismatch, a section count that
// does not match the end marker, or an index that disagrees with the
// sections it describes. Callers test with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrNoSection reports a File.Section lookup for a kind the file does not
// contain.
var ErrNoSection = errors.New("snapshot: section not present")

// headerSize is the fixed byte size of the file header.
const headerSize = 8 + 4 + 4 + 8

// sectionHeadSize is the fixed byte size of a section's kind+length prefix.
const sectionHeadSize = 4 + 8

// indexEntrySize is the fixed byte size of one index entry:
// kind u32 | offset u64 | length u64 | crc u32.
const indexEntrySize = 4 + 8 + 8 + 4

// endSize is the full end-marker size (head + indexOff + crc).
const endSize = sectionHeadSize + 8 + 4

// SectionInfo describes one section without retaining its payload: its
// kind, its file offset (of the kind field), its payload length and its
// CRC. It is both the index entry layout and File's table entry.
type SectionInfo struct {
	Kind   uint32
	Offset int64
	Length uint64
	CRC    uint32
}

// Writer streams one snapshot to an io.Writer: header first, then sections
// in call order, then the index and end marker on Close. It buffers
// nothing beyond the caller's payload slice — BeginSection/EndSection
// stream a payload of known length straight through — so writing a
// multi-gigabyte deployment costs constant memory on top of the payloads
// themselves. Not safe for concurrent use.
type Writer struct {
	w       io.Writer
	written int64
	closed  bool
	err     error
	index   []SectionInfo
	// stream is the section being written, nil between sections.
	stream *streamState
}

type streamState struct {
	SectionInfo
	remaining uint64
}

// NewWriter writes the header and returns a writer ready for Section
// calls. epoch is the deployment's update-batch counter, surfaced in the
// header so inspectors can report it without parsing any payload.
func NewWriter(w io.Writer, epoch int64) (*Writer, error) {
	sw := &Writer{w: w}
	var buf [headerSize]byte
	copy(buf[:8], magic)
	binary.BigEndian.PutUint32(buf[8:], Version)
	binary.BigEndian.PutUint32(buf[12:], 0) // flags, reserved
	binary.BigEndian.PutUint64(buf[16:], uint64(epoch))
	if err := sw.write(buf[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *Writer) write(p []byte) error {
	if sw.err != nil {
		return sw.err
	}
	n, err := sw.w.Write(p)
	sw.written += int64(n)
	if err != nil {
		sw.err = fmt.Errorf("snapshot: write: %w", err)
	}
	return sw.err
}

// Section appends one framed section: kind, length, payload, CRC. kind
// must not be a reserved kind. The payload is not retained.
func (sw *Writer) Section(kind uint32, payload []byte) error {
	w, err := sw.BeginSection(kind, uint64(len(payload)))
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return sw.EndSection()
}

// BeginSection opens a section of exactly length payload bytes and returns
// the writer to stream them into. The producer must write the declared
// length precisely and then call EndSection — the CRC is accumulated as
// bytes flow, so nothing is buffered and the underlying writer need not be
// seekable. Writing past the declared length is an error; writing less is
// caught by EndSection.
func (sw *Writer) BeginSection(kind uint32, length uint64) (io.Writer, error) {
	switch {
	case sw.err != nil:
		return nil, sw.err
	case sw.closed:
		return nil, errors.New("snapshot: section after Close")
	case kind == EndKind || kind == IndexKind:
		return nil, fmt.Errorf("snapshot: section kind %#x is reserved", kind)
	}
	return sw.begin(kind, length)
}

// begin writes a section head — every section's and the index's.
func (sw *Writer) begin(kind uint32, length uint64) (io.Writer, error) {
	if sw.stream != nil {
		return nil, errors.New("snapshot: section while another is open")
	}
	var head [sectionHeadSize]byte
	binary.BigEndian.PutUint32(head[:], kind)
	binary.BigEndian.PutUint64(head[4:], length)
	st := &streamState{
		SectionInfo: SectionInfo{Kind: kind, Offset: sw.written, Length: length, CRC: crc32.ChecksumIEEE(head[:])},
		remaining:   length,
	}
	if err := sw.write(head[:]); err != nil {
		return nil, err
	}
	sw.stream = st
	return (*streamWriter)(sw), nil
}

// EndSection closes the section opened by BeginSection, writing its CRC
// frame and recording it for the index. The full declared length must
// have been written.
func (sw *Writer) EndSection() error {
	e, err := sw.end()
	if err != nil {
		return err
	}
	sw.index = append(sw.index, e)
	return nil
}

// end writes the open section's CRC tail — every section's and the index's.
func (sw *Writer) end() (SectionInfo, error) {
	st := sw.stream
	switch {
	case sw.err != nil:
		return SectionInfo{}, sw.err
	case st == nil:
		return SectionInfo{}, errors.New("snapshot: EndSection without BeginSection")
	case st.remaining != 0:
		sw.err = fmt.Errorf("snapshot: section kind %d short by %d bytes", st.Kind, st.remaining)
		return SectionInfo{}, sw.err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], st.CRC)
	if err := sw.write(tail[:]); err != nil {
		return SectionInfo{}, err
	}
	sw.stream = nil
	return st.SectionInfo, nil
}

// streamWriter is the io.Writer handed out by BeginSection.
type streamWriter Writer

func (w *streamWriter) Write(p []byte) (int, error) {
	sw := (*Writer)(w)
	if sw.err != nil {
		return 0, sw.err
	}
	st := sw.stream
	if st == nil {
		return 0, errors.New("snapshot: write outside BeginSection/EndSection")
	}
	if uint64(len(p)) > st.remaining {
		sw.err = fmt.Errorf("snapshot: section kind %d overflows its declared %d bytes", st.Kind, st.Length)
		return 0, sw.err
	}
	if err := sw.write(p); err != nil {
		return 0, err
	}
	st.remaining -= uint64(len(p))
	st.CRC = crc32.Update(st.CRC, crc32.IEEETable, p)
	return len(p), nil
}

// Close writes the index and the end marker. The underlying io.Writer is
// not closed — callers own its lifecycle.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	if sw.stream != nil {
		sw.err = fmt.Errorf("snapshot: Close with section kind %d still open", sw.stream.Kind)
		return sw.err
	}
	sw.closed = true
	indexOff := sw.written
	payload := make([]byte, 0, 4+len(sw.index)*indexEntrySize)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(sw.index)))
	for _, e := range sw.index {
		payload = binary.BigEndian.AppendUint32(payload, e.Kind)
		payload = binary.BigEndian.AppendUint64(payload, uint64(e.Offset))
		payload = binary.BigEndian.AppendUint64(payload, e.Length)
		payload = binary.BigEndian.AppendUint32(payload, e.CRC)
	}
	w, err := sw.begin(IndexKind, uint64(len(payload)))
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if _, err := sw.end(); err != nil {
		return err
	}
	var buf [endSize]byte
	binary.BigEndian.PutUint32(buf[:], EndKind)
	binary.BigEndian.PutUint64(buf[4:], uint64(len(sw.index)))
	binary.BigEndian.PutUint64(buf[12:], uint64(indexOff))
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return sw.write(buf[:])
}

// Bytes returns the total bytes written so far, including framing.
func (sw *Writer) Bytes() int64 { return sw.written }

// parseIndex decodes an index payload into section infos, validating only
// self-consistency (count vs payload size, monotonic offsets).
func parseIndex(payload []byte) ([]SectionInfo, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: index payload of %d bytes", ErrCorrupt, len(payload))
	}
	count := binary.BigEndian.Uint32(payload)
	if uint64(len(payload)) != 4+uint64(count)*indexEntrySize {
		return nil, fmt.Errorf("%w: index counts %d entries in %d bytes", ErrCorrupt, count, len(payload))
	}
	entries := make([]SectionInfo, count)
	prevEnd := int64(headerSize)
	for i := range entries {
		p := payload[4+i*indexEntrySize:]
		e := SectionInfo{
			Kind:   binary.BigEndian.Uint32(p),
			Offset: int64(binary.BigEndian.Uint64(p[4:])),
			Length: binary.BigEndian.Uint64(p[12:]),
			CRC:    binary.BigEndian.Uint32(p[20:]),
		}
		if e.Kind == EndKind || e.Kind == IndexKind {
			return nil, fmt.Errorf("%w: index entry %d has reserved kind %#x", ErrCorrupt, i, e.Kind)
		}
		if e.Offset < prevEnd {
			return nil, fmt.Errorf("%w: index entry %d offset %d overlaps the previous section", ErrCorrupt, i, e.Offset)
		}
		if e.Length > uint64(1)<<62 {
			return nil, fmt.Errorf("%w: index entry %d length %d", ErrCorrupt, i, e.Length)
		}
		prevEnd = e.Offset + sectionHeadSize + int64(e.Length) + 4
		entries[i] = e
	}
	return entries, nil
}
