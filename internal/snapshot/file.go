package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// File is the random-access face of a snapshot: it opens by reading only
// the header and the section table — the trailing index when present and
// valid, a frame walk over section heads otherwise — and reads payloads
// through one loop of positioned reads: Open streams a section to wherever
// its bytes will live, Section is that stream read whole. No payload byte
// is touched at open, which keeps a replica's cold start O(sections)
// instead of O(file size); payload CRCs are verified on first touch, so a
// lazy loader surfaces corruption as a clean error from that touch.
//
// Safe for concurrent Open and Section calls (io.ReaderAt is required to
// tolerate concurrent positioned reads, and os.File does).
type File struct {
	ra      io.ReaderAt
	size    int64
	closer  io.Closer
	epoch   int64
	indexed bool
	table   []SectionInfo
}

// Open opens a snapshot file for random access. The returned File keeps
// the descriptor open — lazily hydrated loaders read from it long after
// open — until Close.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sf, err := NewFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	sf.closer = f
	return sf, nil
}

// NewFile opens a snapshot over any positioned reader of the given size.
// The index is loaded and validated; a file whose index is corrupt or
// unreachable falls back to a sequential frame walk that reads only
// section heads (never payloads).
func NewFile(ra io.ReaderAt, size int64) (*File, error) {
	f := &File{ra: ra, size: size}
	var head [headerSize]byte
	if err := f.pread(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: header truncated: %v", ErrCorrupt, err)
	}
	if string(head[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:8])
	}
	if v := binary.BigEndian.Uint32(head[8:]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (reader speaks %d)", ErrCorrupt, v, Version)
	}
	f.epoch = int64(binary.BigEndian.Uint64(head[16:]))
	if table, err := f.loadIndex(); err == nil {
		f.table, f.indexed = table, true
		return f, nil
	}
	table, err := f.Walk()
	if err != nil {
		return nil, err
	}
	f.table = table
	return f, nil
}

// Close releases the underlying descriptor when the File owns one (Open);
// section reads fail afterwards.
func (f *File) Close() error {
	if f.closer == nil {
		return nil
	}
	return f.closer.Close()
}

// Epoch returns the deployment epoch recorded in the header.
func (f *File) Epoch() int64 { return f.epoch }

// Indexed reports whether the section table came from a valid trailing
// index (false when the file was opened via the fallback walk).
func (f *File) Indexed() bool { return f.indexed }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Sections returns the section table (a copy), in file order. Payload
// CRCs in a table built by the fallback walk are as recorded in the file,
// not yet verified — Section verifies on read.
func (f *File) Sections() []SectionInfo {
	return append([]SectionInfo(nil), f.table...)
}

// Has reports whether the file contains a section of the given kind.
func (f *File) Has(kind uint32) bool {
	for _, e := range f.table {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// Section reads, CRC-verifies and returns the whole payload of the first
// section of the given kind — for sections small enough, or like the
// certificate already in their final form, to hold in one piece. Absent
// kinds return ErrNoSection; integrity failures wrap ErrCorrupt.
func (f *File) Section(kind uint32) ([]byte, error) {
	r, err := f.Open(kind)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, r.Len())
	r.Read(buf) // a failed read is sticky: Verify reports it
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return buf, nil
}

// SectionReader streams one section's payload: positioned reads in bounded
// chunks straight into the caller's memory, the CRC folded in as the bytes
// flow. A decoder may thus run ahead of the checksum, but must publish
// nothing built from the bytes before Verify returns nil. One goroutine.
type SectionReader struct {
	f        *File
	e        SectionInfo
	off      int64 // file offset of the next payload byte
	crc      uint32
	verified bool
	err      error
	frame    [sectionHeadSize]byte // the head, later the CRC tail, read here
}

// Open starts a streaming read of the first section of the given kind.
func (f *File) Open(kind uint32) (*SectionReader, error) {
	for _, e := range f.table {
		if e.Kind == kind {
			return f.open(e)
		}
	}
	return nil, fmt.Errorf("%w: kind %d", ErrNoSection, kind)
}

// open starts a streaming read of one table entry. Its head must match the
// entry, bounds-checked when the file opened.
func (f *File) open(e SectionInfo) (*SectionReader, error) {
	r := &SectionReader{f: f, e: e, off: e.Offset + sectionHeadSize}
	head := r.frame[:]
	if err := f.pread(head, e.Offset); err != nil {
		return nil, fmt.Errorf("%w: section kind %d head: %v", ErrCorrupt, e.Kind, err)
	}
	if k, l := binary.BigEndian.Uint32(head), binary.BigEndian.Uint64(head[4:]); k != e.Kind || l != e.Length {
		return nil, fmt.Errorf("%w: table says kind %d, %d bytes; the section there says kind %d, %d bytes", ErrCorrupt, e.Kind, e.Length, k, l)
	}
	r.crc = crc32.ChecksumIEEE(head)
	return r, nil
}

// Verify is the whole-file integrity check: the table must have come from
// a usable index, and every section in it is streamed through a
// SectionReader, so each CRC is recomputed from the payload and checked
// against the frame's and the table's — in one chunk of memory.
func (f *File) Verify() error {
	if !f.indexed {
		return fmt.Errorf("%w: section index unusable", ErrCorrupt)
	}
	for _, e := range f.table {
		r, err := f.open(e)
		if err == nil {
			err = r.Verify()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Len returns the payload bytes not yet read.
func (r *SectionReader) Len() int64 { return r.e.Offset + sectionHeadSize + int64(r.e.Length) - r.off }

// sectionChunk bounds one read, so the CRC runs over bytes still in cache.
const sectionChunk = 256 << 10

// Read fills p from the payload, short only at the section's end (io.EOF).
// A failed read is sticky and wraps ErrCorrupt.
func (r *SectionReader) Read(p []byte) (int, error) {
	if left := r.Len(); left == 0 && r.err == nil {
		return 0, io.EOF
	} else if int64(len(p)) > left {
		p = p[:left]
	}
	n := 0
	for n < len(p) && r.err == nil {
		chunk := p[n:min(n+sectionChunk, len(p))]
		if err := r.f.pread(chunk, r.off); err != nil {
			r.err = fmt.Errorf("%w: section kind %d payload: %v", ErrCorrupt, r.e.Kind, err)
			break
		}
		r.crc = crc32.Update(r.crc, crc32.IEEETable, chunk)
		r.off += int64(len(chunk))
		n += len(chunk)
	}
	return n, r.err
}

// Verify, once, reads whatever the caller left unread (a decoder's early
// error must not mask a bad checksum) and checks the running CRC against
// the section's stored one and the table's.
func (r *SectionReader) Verify() error {
	if r.verified {
		return r.err
	}
	r.verified = true
	for scratch := make([]byte, min(r.Len(), sectionChunk)); r.Len() > 0 && r.err == nil; {
		r.Read(scratch)
	}
	tail := r.frame[:4]
	if r.err != nil {
		return r.err
	} else if err := r.f.pread(tail, r.off); err != nil {
		r.err = fmt.Errorf("%w: section kind %d CRC: %v", ErrCorrupt, r.e.Kind, err)
	} else if stored := binary.BigEndian.Uint32(tail); stored != r.crc || stored != r.e.CRC {
		r.err = fmt.Errorf("%w: section kind %d CRC mismatch", ErrCorrupt, r.e.Kind)
	}
	return r.err
}

func (f *File) pread(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > f.size {
		return fmt.Errorf("read [%d, %d) outside %d-byte file", off, off+int64(len(p)), f.size)
	}
	_, err := f.ra.ReadAt(p, off)
	return err
}

// loadIndex resolves the trailing index: end marker → index
// offset → index section, each CRC-checked, every entry bounds-checked
// against the real file size so a lying index cannot cause reads or
// allocations beyond the file.
func (f *File) loadIndex() ([]SectionInfo, error) {
	if f.size < headerSize+endSize {
		return nil, fmt.Errorf("%w: %d-byte file has no room for an end marker", ErrCorrupt, f.size)
	}
	var end [endSize]byte
	if err := f.pread(end[:], f.size-endSize); err != nil {
		return nil, fmt.Errorf("%w: end marker: %v", ErrCorrupt, err)
	}
	if binary.BigEndian.Uint32(end[:]) != EndKind {
		return nil, fmt.Errorf("%w: no end marker at file tail", ErrCorrupt)
	}
	if got := binary.BigEndian.Uint32(end[20:]); got != crc32.ChecksumIEEE(end[:20]) {
		return nil, fmt.Errorf("%w: end marker CRC mismatch", ErrCorrupt)
	}
	count := binary.BigEndian.Uint64(end[4:])
	indexOff := int64(binary.BigEndian.Uint64(end[12:]))
	if indexOff < headerSize || indexOff > f.size-endSize-sectionHeadSize-4 {
		return nil, fmt.Errorf("%w: index offset %d outside file", ErrCorrupt, indexOff)
	}
	var head [sectionHeadSize]byte
	if err := f.pread(head[:], indexOff); err != nil {
		return nil, fmt.Errorf("%w: index head: %v", ErrCorrupt, err)
	}
	if binary.BigEndian.Uint32(head[:]) != IndexKind {
		return nil, fmt.Errorf("%w: no index at offset %d", ErrCorrupt, indexOff)
	}
	length := binary.BigEndian.Uint64(head[4:])
	if length > uint64(f.size-endSize-indexOff-sectionHeadSize-4) {
		return nil, fmt.Errorf("%w: index length %d outside file", ErrCorrupt, length)
	}
	buf := make([]byte, length+4)
	if err := f.pread(buf, indexOff+sectionHeadSize); err != nil {
		return nil, fmt.Errorf("%w: index payload: %v", ErrCorrupt, err)
	}
	payload, tail := buf[:length:length], buf[length:]
	if got := binary.BigEndian.Uint32(tail); got != crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, payload) {
		return nil, fmt.Errorf("%w: index CRC mismatch", ErrCorrupt)
	}
	entries, err := parseIndex(payload)
	if err != nil {
		return nil, err
	}
	if uint64(len(entries)) != count {
		return nil, fmt.Errorf("%w: index lists %d sections, end marker counts %d", ErrCorrupt, len(entries), count)
	}
	for _, e := range entries {
		if e.Offset+sectionHeadSize+int64(e.Length)+4 > indexOff {
			return nil, fmt.Errorf("%w: index entry kind %d overruns the index", ErrCorrupt, e.Kind)
		}
	}
	return entries, nil
}

// Walk builds the section table sequentially from section frames alone —
// the open's fallback for a corrupt index, and the second opinion an
// auditor compares the index's table with. It validates framing and the
// end marker but reads no payload; payload CRCs are taken from the file
// and verified on first read (or by Verify).
func (f *File) Walk() ([]SectionInfo, error) {
	var table []SectionInfo
	var payloads uint64
	off := int64(headerSize)
	for {
		var head [sectionHeadSize]byte
		if err := f.pread(head[:], off); err != nil {
			return nil, fmt.Errorf("%w: section header at %d: %v", ErrCorrupt, off, err)
		}
		kind := binary.BigEndian.Uint32(head[:])
		length := binary.BigEndian.Uint64(head[4:])
		if kind == EndKind {
			if err := f.walkEnd(head, off); err != nil {
				return nil, err
			}
			if length != payloads {
				return nil, fmt.Errorf("%w: end marker counts %d sections, walked %d", ErrCorrupt, length, payloads)
			}
			return table, nil
		}
		if room := f.size - off - sectionHeadSize - 4; room < 0 || length > uint64(room) {
			return nil, fmt.Errorf("%w: section kind %d length %d outside file", ErrCorrupt, kind, length)
		}
		var tail [4]byte
		if err := f.pread(tail[:], off+sectionHeadSize+int64(length)); err != nil {
			return nil, fmt.Errorf("%w: section kind %d CRC truncated: %v", ErrCorrupt, kind, err)
		}
		if kind != IndexKind {
			payloads++
			table = append(table, SectionInfo{
				Kind: kind, Offset: off, Length: length,
				CRC: binary.BigEndian.Uint32(tail[:]),
			})
		}
		off += sectionHeadSize + int64(length) + 4
	}
}

// walkEnd validates the end marker during a walk.
func (f *File) walkEnd(head [sectionHeadSize]byte, off int64) error {
	var tail [12]byte
	if err := f.pread(tail[:], off+sectionHeadSize); err != nil {
		return fmt.Errorf("%w: end marker truncated: %v", ErrCorrupt, err)
	}
	crc := crc32.ChecksumIEEE(head[:12])
	crc = crc32.Update(crc, crc32.IEEETable, tail[:8])
	if got := binary.BigEndian.Uint32(tail[8:]); got != crc {
		return fmt.Errorf("%w: end marker CRC mismatch", ErrCorrupt)
	}
	return nil
}
