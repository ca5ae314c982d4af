package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mht"
)

// This file is the part of the proof wire every method shares. All four
// answer Algorithm 1 with one frame,
//
//	path | dist f64 | … | tuple block | mht proof | …
//
// the reported path and its claimed distance, the tuple subgraph and the
// Merkle proof over the network tree, with each method's own fields (hint
// parameters, distance proofs, signatures) where the dots are. proofFrame
// holds and writes the shared fields; wireReader reads all of it.

// tupleRecord is one authenticated tuple on the wire: its Merkle leaf
// position and its canonical byte encoding. The digest of Bytes is the leaf
// digest at Pos; lying about either surfaces as a root mismatch.
type tupleRecord struct {
	Pos   uint32
	Bytes []byte
}

// proofFrame is the part of an answer every method carries: the path and
// its claimed distance, the tuples, and their Merkle integrity proof.
type proofFrame struct {
	Path   graph.Path
	Dist   float64
	Tuples []tupleRecord
	MHT    *mht.Proof
}

// Result returns the reported path and its claimed distance.
func (f *proofFrame) Result() (graph.Path, float64) { return f.Path, f.Dist }

// LeafSpan returns the inclusive [lo, hi] range of network-ADS leaf
// positions the tuples cover, or ok=false for none. Leaf layouts preserve
// network locality (Hilbert/KD/BFS orderings), so the span is a tight
// summary of which part of the tree a proof exposes — the serving layer
// stores it per cached proof and invalidates on dirty-leaf overlap.
func (f *proofFrame) LeafSpan() (lo, hi uint32, ok bool) {
	if len(f.Tuples) == 0 {
		return 0, 0, false
	}
	lo, hi = f.Tuples[0].Pos, f.Tuples[0].Pos
	for _, r := range f.Tuples[1:] {
		lo, hi = min(lo, r.Pos), max(hi, r.Pos)
	}
	return lo, hi, true
}

// appendHead writes path | dist:
//
//	count u32 | count × node u32 | dist f64
func (f *proofFrame) appendHead(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Path)))
	for _, v := range f.Path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return appendFloat(buf, f.Dist)
}

// appendBody writes tuple block | mht proof:
//
//	count u32 | count × (pos u32, len u32, bytes) | mht proof
func (f *proofFrame) appendBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Tuples)))
	for _, r := range f.Tuples {
		buf = binary.BigEndian.AppendUint32(buf, r.Pos)
		buf = appendBytes(buf, r.Bytes)
	}
	return f.MHT.AppendBinary(buf)
}

// tupleBlockSize returns the wire size of a tuple set.
func tupleBlockSize(recs []tupleRecord) int {
	n := 4
	for _, r := range recs {
		n += 8 + len(r.Bytes)
	}
	return n
}

// pathWireSize returns the encoded size of a path.
func pathWireSize(p graph.Path) int { return 4 + 4*len(p) }

// appendBytes writes a length-prefixed byte string.
func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// Sanity bounds on the counts a wire claims, checked before the bytes.
const (
	maxPath   = 1 << 24
	maxTuples = 1 << 26
)

// wireReader decodes proof wires (and /batch blobs) with sticky-error
// semantics, like snapCursor over a snapshot section: the first failure
// latches as ErrMalformedProof, later reads return zero values, and done
// reports it, so a decoder reads as the layout it parses. Every read is
// checked against the bytes present, and no count the untrusted wire
// claims sizes an allocation those bytes cannot back. Decoded byte strings
// alias buf (see DecodeProof).
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformedProof, fmt.Sprintf(format, args...))
	}
}

// remaining is the bytes not yet consumed.
func (r *wireReader) remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes of buf, or nil once the reader has failed.
func (r *wireReader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || n > r.remaining() {
		r.fail("%s truncated", what)
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *wireReader) u8(what string) byte {
	if b := r.take(1, what); r.err == nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32(what string) uint32 {
	if b := r.take(4, what); r.err == nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) f64(what string) float64 {
	if b := r.take(8, what); r.err == nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

// bytes reads a length-prefixed byte string.
func (r *wireReader) bytes(what string) []byte { return r.take(int(r.u32(what)), what) }

// path reads count u32 | count × node u32.
func (r *wireReader) path() graph.Path {
	count := int(r.u32("path"))
	if count > maxPath {
		r.fail("path of %d nodes", count)
	}
	b := r.take(4*count, "path body")
	if r.err != nil {
		return nil
	}
	p := make(graph.Path, count)
	for i := range p {
		p[i] = graph.NodeID(binary.BigEndian.Uint32(b[4*i:]))
	}
	return p
}

// tuples reads a tuple block (layout at appendBody).
func (r *wireReader) tuples() []tupleRecord {
	count := int(r.u32("tuple block"))
	if count < 0 || count > maxTuples {
		r.fail("absurd tuple count %d", count)
	}
	if r.err != nil {
		return nil
	}
	// Every record needs ≥ 8 header bytes: a lying count must not make the
	// decoder allocate gigabytes before the truncation check trips.
	recs := make([]tupleRecord, 0, min(count, r.remaining()/8))
	for i := 0; i < count; i++ {
		// The one loop that runs per record checks its bounds in line: take
		// is too big to inline.
		rest := r.buf[r.off:]
		if len(rest) < 8 || int64(binary.BigEndian.Uint32(rest[4:])) > int64(len(rest)-8) {
			r.fail("tuple record %d truncated", i)
			return nil
		}
		end := 8 + int(binary.BigEndian.Uint32(rest[4:]))
		recs = append(recs, tupleRecord{Pos: binary.BigEndian.Uint32(rest), Bytes: rest[8:end]})
		r.off += end
	}
	return recs
}

// nested reads a sub-proof (Merkle, distance tree) with its own decoder.
func nested[T any](r *wireReader, decode func([]byte) (T, int, error)) T {
	var zero T
	if r.err != nil {
		return zero
	}
	v, n, err := decode(r.buf[r.off:])
	if err != nil {
		r.fail("%v", err)
		return zero
	}
	r.off += n
	return v
}

// head reads path | dist into f.
func (r *wireReader) head(f *proofFrame) {
	f.Path = r.path()
	f.Dist = r.f64("distance")
}

// body reads tuple block | mht proof into f.
func (r *wireReader) body(f *proofFrame) {
	f.Tuples = r.tuples()
	f.MHT = nested(r, mht.DecodeProof)
}

// done ends a decode: pr and the bytes consumed, or the first failure.
func (r *wireReader) done(pr Proof) (Proof, int, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	return pr, r.off, nil
}
