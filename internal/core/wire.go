package core

import (
	"encoding/binary"
	"fmt"

	"github.com/authhints/spv/internal/graph"
)

// tupleRecord is one authenticated tuple on the wire: its Merkle leaf
// position and its canonical byte encoding. The digest of Bytes is the leaf
// digest at Pos; lying about either surfaces as a root mismatch.
type tupleRecord struct {
	Pos   uint32
	Bytes []byte
}

// tupleSpan returns the inclusive [lo, hi] range of Merkle leaf positions
// a record set covers, or ok=false for an empty set. Leaf layouts preserve
// network locality (Hilbert/KD/BFS orderings), so the span is a tight
// summary of which part of the tree a proof exposes — the serving layer
// stores it per cached proof and invalidates on dirty-leaf overlap.
func tupleSpan(recs []tupleRecord) (lo, hi uint32, ok bool) {
	if len(recs) == 0 {
		return 0, 0, false
	}
	lo, hi = recs[0].Pos, recs[0].Pos
	for _, r := range recs[1:] {
		if r.Pos < lo {
			lo = r.Pos
		}
		if r.Pos > hi {
			hi = r.Pos
		}
	}
	return lo, hi, true
}

// LeafSpan returns the range of network-ADS leaf positions the proof's
// tuples cover; see tupleSpan.
func (pr *DIJProof) LeafSpan() (lo, hi uint32, ok bool) { return tupleSpan(pr.Tuples) }

// LeafSpan returns the range of network-ADS leaf positions the proof's
// tuples cover; see tupleSpan.
func (pr *FULLProof) LeafSpan() (lo, hi uint32, ok bool) { return tupleSpan(pr.Tuples) }

// LeafSpan returns the range of network-ADS leaf positions the proof's
// tuples cover; see tupleSpan.
func (pr *LDMProof) LeafSpan() (lo, hi uint32, ok bool) { return tupleSpan(pr.Tuples) }

// LeafSpan returns the range of network-ADS leaf positions the proof's
// tuples cover; see tupleSpan.
func (pr *HYPProof) LeafSpan() (lo, hi uint32, ok bool) { return tupleSpan(pr.Tuples) }

// appendTupleBlock serializes a tuple set:
//
//	count uint32 | count × (pos uint32, len uint32, bytes)
func appendTupleBlock(buf []byte, recs []tupleRecord) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint32(buf, r.Pos)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Bytes)))
		buf = append(buf, r.Bytes...)
	}
	return buf
}

// tupleBlockSize returns the wire size of a tuple set.
func tupleBlockSize(recs []tupleRecord) int {
	n := 4
	for _, r := range recs {
		n += 8 + len(r.Bytes)
	}
	return n
}

// decodeTupleBlock parses a tuple block, returning the records and bytes
// consumed.
func decodeTupleBlock(buf []byte) ([]tupleRecord, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: tuple block truncated", ErrMalformedProof)
	}
	count := int(binary.BigEndian.Uint32(buf))
	off := 4
	const maxTuples = 1 << 26 // sanity bound against corrupt counts
	if count < 0 || count > maxTuples {
		return nil, 0, fmt.Errorf("%w: absurd tuple count %d", ErrMalformedProof, count)
	}
	// Cap the up-front allocation by what the buffer can actually hold
	// (every record needs ≥ 8 header bytes): a lying count must not make
	// the decoder allocate gigabytes before the truncation check trips.
	capHint := count
	if m := len(buf[off:]) / 8; capHint > m {
		capHint = m
	}
	recs := make([]tupleRecord, 0, capHint)
	for i := 0; i < count; i++ {
		if len(buf[off:]) < 8 {
			return nil, 0, fmt.Errorf("%w: tuple record %d truncated", ErrMalformedProof, i)
		}
		pos := binary.BigEndian.Uint32(buf[off:])
		size := int(binary.BigEndian.Uint32(buf[off+4:]))
		off += 8
		if size < 0 || len(buf[off:]) < size {
			return nil, 0, fmt.Errorf("%w: tuple record %d body truncated", ErrMalformedProof, i)
		}
		recs = append(recs, tupleRecord{Pos: pos, Bytes: buf[off : off+size]})
		off += size
	}
	return recs, off, nil
}

// appendBytes writes a length-prefixed byte string.
func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// decodeBytes reads a length-prefixed byte string.
func decodeBytes(buf []byte) ([]byte, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: byte string truncated", ErrMalformedProof)
	}
	size := int(binary.BigEndian.Uint32(buf))
	if size < 0 || len(buf[4:]) < size {
		return nil, 0, fmt.Errorf("%w: byte string body truncated", ErrMalformedProof)
	}
	return buf[4 : 4+size], 4 + size, nil
}

// appendPath writes a node path.
func appendPath(buf []byte, p graph.Path) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
	for _, v := range p {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// pathWireSize returns the encoded size of a path.
func pathWireSize(p graph.Path) int { return 4 + 4*len(p) }

// decodePath reads a node path.
func decodePath(buf []byte) (graph.Path, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: path truncated", ErrMalformedProof)
	}
	count := int(binary.BigEndian.Uint32(buf))
	const maxPath = 1 << 24
	if count < 0 || count > maxPath || len(buf[4:]) < 4*count {
		return nil, 0, fmt.Errorf("%w: path body truncated", ErrMalformedProof)
	}
	p := make(graph.Path, count)
	for i := 0; i < count; i++ {
		p[i] = graph.NodeID(binary.BigEndian.Uint32(buf[4+4*i:]))
	}
	return p, 4 + 4*count, nil
}
