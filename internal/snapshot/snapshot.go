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
// The sequential Reader checks the index against the sections it has read;
// File opens through the index and falls back to a frame walk — reading
// only section heads, never payloads — when the index is corrupt.
//
// # Version and compatibility rules
//
// Version is bumped whenever any payload encoding changes shape — the
// format carries precomputed Merkle digests, so there is no such thing as
// a tolerant re-interpretation: a reader either understands a version
// exactly or refuses it. Unknown section kinds within a known version are
// skippable by Scan (inspection) but are an error for semantic loaders,
// which must not silently drop state they do not understand.
//
// # Robustness
//
// Readers never trust a declared length: sequential reads grow payload
// buffers only as bytes actually arrive, and File validates
// every index offset and length against the real file size before
// allocating, so a lying length field cannot translate into a giant
// speculative allocation. Corruption — flipped payload bytes, truncated
// files, wrong section counts, a lying index — is reported as an error
// wrapping ErrCorrupt, never a panic. A payload read through File is CRC-
// verified at read time (first touch), so lazy loaders surface corruption
// as a clean error from the query that first needs the section.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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

// IndexKind is the reserved section kind of the trailing index. The
// sequential Reader validates and consumes it internally; it is never
// surfaced as a payload section.
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

// readChunk is the least a sequential reader allocates ahead of verified
// bytes: payloads grow as data actually arrives (see readBounded), so a
// lying length field cannot translate into a giant speculative allocation.
const readChunk = 1 << 20

// SectionInfo describes one section without retaining its payload: its
// kind, its file offset (of the kind field), its payload length and its
// CRC. It is both the index entry layout and the Scan/File inspection
// record.
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
	w        io.Writer
	sections uint64
	written  int64
	closed   bool
	err      error
	index    []SectionInfo
	// stream is the in-flight BeginSection state, nil between sections.
	stream *streamState
}

type streamState struct {
	kind      uint32
	offset    int64
	length    uint64
	remaining uint64
	crc       uint32
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

// checkKind rejects writes outside the legal section states.
func (sw *Writer) checkKind(kind uint32) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return errors.New("snapshot: section after Close")
	}
	if sw.stream != nil {
		return errors.New("snapshot: section while a streaming section is open")
	}
	if kind == EndKind || kind == IndexKind {
		return fmt.Errorf("snapshot: section kind %#x is reserved", kind)
	}
	return nil
}

// Section appends one framed section: kind, length, payload, payload CRC.
// kind must not be a reserved kind. The payload is not retained.
func (sw *Writer) Section(kind uint32, payload []byte) error {
	if err := sw.checkKind(kind); err != nil {
		return err
	}
	offset := sw.written
	var head [sectionHeadSize]byte
	binary.BigEndian.PutUint32(head[:], kind)
	binary.BigEndian.PutUint64(head[4:], uint64(len(payload)))
	if err := sw.write(head[:]); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	crc := sectionCRC(head, payload)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	if err := sw.write(tail[:]); err != nil {
		return err
	}
	sw.sections++
	sw.index = append(sw.index, SectionInfo{Kind: kind, Offset: offset, Length: uint64(len(payload)), CRC: crc})
	return nil
}

// BeginSection opens a streaming section of exactly length payload bytes
// and returns the writer to stream them into. The producer must write the
// declared length precisely and then call EndSection — the CRC is
// accumulated as bytes flow, so nothing is buffered and the underlying
// writer need not be seekable. Writing past the declared length is an
// error; writing less is caught by EndSection.
func (sw *Writer) BeginSection(kind uint32, length uint64) (io.Writer, error) {
	if err := sw.checkKind(kind); err != nil {
		return nil, err
	}
	offset := sw.written
	var head [sectionHeadSize]byte
	binary.BigEndian.PutUint32(head[:], kind)
	binary.BigEndian.PutUint64(head[4:], length)
	if err := sw.write(head[:]); err != nil {
		return nil, err
	}
	sw.stream = &streamState{
		kind: kind, offset: offset, length: length, remaining: length,
		crc: crc32.ChecksumIEEE(head[:]),
	}
	return (*streamWriter)(sw), nil
}

// EndSection closes the streaming section opened by BeginSection, writing
// its CRC frame. The full declared length must have been written.
func (sw *Writer) EndSection() error {
	if sw.err != nil {
		return sw.err
	}
	st := sw.stream
	if st == nil {
		return errors.New("snapshot: EndSection without BeginSection")
	}
	if st.remaining != 0 {
		sw.err = fmt.Errorf("snapshot: streaming section kind %d short by %d bytes", st.kind, st.remaining)
		return sw.err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], st.crc)
	if err := sw.write(tail[:]); err != nil {
		return err
	}
	sw.stream = nil
	sw.sections++
	sw.index = append(sw.index, SectionInfo{Kind: st.kind, Offset: st.offset, Length: st.length, CRC: st.crc})
	return nil
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
		sw.err = fmt.Errorf("snapshot: streaming section kind %d overflows its declared %d bytes", st.kind, st.length)
		return 0, sw.err
	}
	if err := sw.write(p); err != nil {
		return 0, err
	}
	st.remaining -= uint64(len(p))
	st.crc = crc32.Update(st.crc, crc32.IEEETable, p)
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
		sw.err = fmt.Errorf("snapshot: Close with streaming section kind %d still open", sw.stream.kind)
		return sw.err
	}
	sw.closed = true
	indexOff := sw.written
	if err := sw.writeIndex(); err != nil {
		return err
	}
	var buf [endSize]byte
	binary.BigEndian.PutUint32(buf[:], EndKind)
	binary.BigEndian.PutUint64(buf[4:], sw.sections)
	binary.BigEndian.PutUint64(buf[12:], uint64(indexOff))
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return sw.write(buf[:])
}

// writeIndex emits the index as a normally framed section under IndexKind.
func (sw *Writer) writeIndex() error {
	payload := make([]byte, 0, 4+len(sw.index)*indexEntrySize)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(sw.index)))
	for _, e := range sw.index {
		payload = binary.BigEndian.AppendUint32(payload, e.Kind)
		payload = binary.BigEndian.AppendUint64(payload, uint64(e.Offset))
		payload = binary.BigEndian.AppendUint64(payload, e.Length)
		payload = binary.BigEndian.AppendUint32(payload, e.CRC)
	}
	var head [sectionHeadSize]byte
	binary.BigEndian.PutUint32(head[:], IndexKind)
	binary.BigEndian.PutUint64(head[4:], uint64(len(payload)))
	if err := sw.write(head[:]); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], sectionCRC(head, payload))
	return sw.write(tail[:])
}

// sectionCRC is CRC-32 (IEEE) over a section's kind+length prefix followed
// by its payload.
func sectionCRC(head [sectionHeadSize]byte, payload []byte) uint32 {
	sum := crc32.ChecksumIEEE(head[:])
	return crc32.Update(sum, crc32.IEEETable, payload)
}

// Bytes returns the total bytes written so far, including framing.
func (sw *Writer) Bytes() int64 { return sw.written }

// Section is one decoded section: its kind, its file offset, and its
// CRC-verified payload. The payload is owned by the caller.
type Section struct {
	Kind    uint32
	Offset  int64
	Payload []byte
}

// Reader streams sections back from an io.Reader, verifying every CRC and
// the end marker's section count. The index is validated and consumed
// internally, never surfaced as a section. Not safe for concurrent use.
type Reader struct {
	r        io.Reader
	epoch    int64
	sections uint64
	off      int64
	indexOff int64 // offset of the index section, 0 until seen
	indexed  bool
	done     bool
}

// NewReader parses and validates the header. The reader consumes r
// strictly sequentially, so r need not be seekable.
func NewReader(r io.Reader) (*Reader, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: header truncated: %v", ErrCorrupt, err)
	}
	if string(buf[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:8])
	}
	if err := checkVersion(binary.BigEndian.Uint32(buf[8:])); err != nil {
		return nil, err
	}
	return &Reader{r: r, epoch: int64(binary.BigEndian.Uint64(buf[16:])), off: headerSize}, nil
}

// checkVersion is the one version gate Reader and File share.
func checkVersion(v uint32) error {
	if v != Version {
		return fmt.Errorf("%w: unsupported version %d (reader speaks %d)", ErrCorrupt, v, Version)
	}
	return nil
}

// Epoch returns the deployment epoch recorded in the header.
func (sr *Reader) Epoch() int64 { return sr.epoch }

// Indexed reports whether a valid index section has been consumed. Only
// meaningful once Next has returned io.EOF.
func (sr *Reader) Indexed() bool { return sr.indexed }

func (sr *Reader) read(p []byte) error {
	n, err := io.ReadFull(sr.r, p)
	sr.off += int64(n)
	return err
}

// Next returns the next payload section, or io.EOF after a valid end
// marker. Any integrity failure returns an error wrapping ErrCorrupt; once
// an error or EOF is returned the reader is exhausted.
func (sr *Reader) Next() (*Section, error) {
	for {
		if sr.done {
			return nil, io.EOF
		}
		offset := sr.off
		var head [sectionHeadSize]byte
		if err := sr.read(head[:]); err != nil {
			sr.done = true
			return nil, fmt.Errorf("%w: section header truncated: %v", ErrCorrupt, err)
		}
		kind := binary.BigEndian.Uint32(head[:])
		length := binary.BigEndian.Uint64(head[4:])
		if kind == EndKind {
			sr.done = true
			return nil, sr.endMarker(head, length)
		}
		payload, err := readBounded(sr.r, length)
		sr.off += int64(len(payload))
		if err != nil {
			sr.done = true
			return nil, fmt.Errorf("%w: section kind %d payload: %v", ErrCorrupt, kind, err)
		}
		var tail [4]byte
		if err := sr.read(tail[:]); err != nil {
			sr.done = true
			return nil, fmt.Errorf("%w: section kind %d CRC truncated: %v", ErrCorrupt, kind, err)
		}
		if got := binary.BigEndian.Uint32(tail[:]); got != sectionCRC(head, payload) {
			sr.done = true
			return nil, fmt.Errorf("%w: section kind %d CRC mismatch", ErrCorrupt, kind)
		}
		if kind == IndexKind {
			// The index is container metadata: validate its shape here and
			// keep streaming — semantic loaders never see it.
			if err := sr.checkIndex(payload, offset); err != nil {
				sr.done = true
				return nil, err
			}
			continue
		}
		sr.sections++
		return &Section{Kind: kind, Offset: offset, Payload: payload}, nil
	}
}

// checkIndex validates an index section encountered mid-stream: well-
// formed, one per file, and counting exactly the sections read so far (the
// index is written last, so a stray early index is corrupt).
func (sr *Reader) checkIndex(payload []byte, offset int64) error {
	if sr.indexed {
		return fmt.Errorf("%w: duplicate index section", ErrCorrupt)
	}
	entries, err := parseIndex(payload)
	if err != nil {
		return err
	}
	if uint64(len(entries)) != sr.sections {
		return fmt.Errorf("%w: index lists %d sections, read %d", ErrCorrupt, len(entries), sr.sections)
	}
	sr.indexed = true
	sr.indexOff = offset
	return nil
}

// endMarker consumes and validates the end marker's tail; head holds the
// already-read kind+count prefix.
func (sr *Reader) endMarker(head [sectionHeadSize]byte, count uint64) error {
	var tail [12]byte
	if err := sr.read(tail[:]); err != nil {
		return fmt.Errorf("%w: end marker truncated: %v", ErrCorrupt, err)
	}
	crc := crc32.ChecksumIEEE(head[:12])
	crc = crc32.Update(crc, crc32.IEEETable, tail[:8])
	if got := binary.BigEndian.Uint32(tail[8:]); got != crc {
		return fmt.Errorf("%w: end marker CRC mismatch", ErrCorrupt)
	}
	if count != sr.sections {
		return fmt.Errorf("%w: end marker counts %d sections, read %d", ErrCorrupt, count, sr.sections)
	}
	indexOff := int64(binary.BigEndian.Uint64(tail[:8]))
	if !sr.indexed {
		return fmt.Errorf("%w: no index section", ErrCorrupt)
	}
	if indexOff != sr.indexOff {
		return fmt.Errorf("%w: end marker points index at %d, found at %d", ErrCorrupt, indexOff, sr.indexOff)
	}
	return io.EOF
}

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

// readBounded reads exactly length bytes straight into the tail of the
// payload it returns. Each step asks for as many bytes as have already
// arrived (at least one readChunk), so the buffer doubles — a payload is
// copied about once in total however long it is — and never extends past
// twice the verified bytes plus a chunk: a lying length cannot force a
// giant allocation.
func readBounded(r io.Reader, length uint64) ([]byte, error) {
	out := []byte{}
	for uint64(len(out)) < length {
		step := max(len(out), readChunk)
		if rest := length - uint64(len(out)); rest < uint64(step) {
			step = int(rest)
		}
		start := len(out)
		out = slices.Grow(out, step)[:start+step]
		if n, err := io.ReadFull(r, out[start:]); err != nil {
			return out[:start+n], fmt.Errorf("truncated (%d of %d bytes): %v", start+n, length, err)
		}
	}
	return out, nil
}

// Info is the inspection summary Scan produces.
type Info struct {
	Epoch   int64
	Version uint32
	// Indexed reports whether the file carries a valid trailing index.
	Indexed  bool
	Sections []SectionInfo
	// Bytes is the total file size consumed, framing included.
	Bytes int64
}

// Scan reads a whole snapshot, verifying every CRC and the end marker, and
// returns the per-section summary. It retains no payload beyond one
// section at a time — the inspection path for cmd/spvsnap.
func Scan(r io.Reader) (*Info, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	info := &Info{Epoch: sr.epoch, Version: Version}
	for {
		s, err := sr.Next()
		if err == io.EOF {
			info.Bytes = sr.off
			info.Indexed = sr.indexed
			return info, nil
		}
		if err != nil {
			return nil, err
		}
		var head [sectionHeadSize]byte
		binary.BigEndian.PutUint32(head[:], s.Kind)
		binary.BigEndian.PutUint64(head[4:], uint64(len(s.Payload)))
		info.Sections = append(info.Sections, SectionInfo{
			Kind:   s.Kind,
			Offset: s.Offset,
			Length: uint64(len(s.Payload)),
			CRC:    sectionCRC(head, s.Payload),
		})
	}
}
