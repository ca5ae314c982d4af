package core

import (
	"encoding/binary"
	"fmt"

	"github.com/authhints/spv/internal/graph"
)

// This file is the /batch container ("SPB2"): proofs of one method framed
// together, transport only. Servers emit it only when a request opts in.
//
//	"SPB2" | method (u32 len, bytes) | count u32 | count × item
//	item = vs u32 | vt u32 | tag u8 | body (u32 len, wire)   tag 0
//	                                | backref u32            tag 1
//
// Four decode rules make decode → re-encode the identity (the fuzz target
// pins it) and leave a flipped byte nowhere to hide outside a proof body:
// a body is one whole standalone proof wire — what DecodeProof reads — with
// no trailing bytes; (vs, vt) are that proof's path endpoints; a body equal
// to an earlier one must be a backref; a backref names an earlier item that
// carries a body.

const (
	proofBatchMagic = "SPB2"

	batchItemBody    = 0
	batchItemBackref = 1

	batchItemMin  = 13 // vs, vt, tag and a body length or backref
	maxBatchItems = 1 << 20
)

// ProofBatch is a decoded batch blob: the method plus one query-proof pair
// per item. A backref item shares its target's Proof value, which
// VerifyBatch dedups for free.
type ProofBatch struct {
	Method Method
	items  []BatchItem
}

// Items returns the batch's own slice of query-proof pairs, for VerifyBatch.
func (pb *ProofBatch) Items() []BatchItem { return pb.items }

// Len reports the number of items.
func (pb *ProofBatch) Len() int { return len(pb.items) }

// AppendBinary re-encodes the batch: byte-identical to what was decoded.
func (pb *ProofBatch) AppendBinary(buf []byte) ([]byte, error) {
	return AppendProofBatch(buf, pb.Method, pb.items)
}

// WireItem is one query with its proof's standalone wire encoding.
type WireItem struct {
	VS, VT graph.NodeID
	Wire   []byte
}

// answers reports whether pr's path runs from vs to vt — the one fact an
// item header states, checked on both sides of the container.
func answers(pr Proof, vs, vt graph.NodeID) bool {
	path, _ := pr.Result()
	return len(path) > 0 && path[0] == vs && path[len(path)-1] == vt
}

// AppendProofBatch encodes proofs of one method as a batch blob (layout
// above). Each item's endpoints must be its proof's path endpoints.
func AppendProofBatch(buf []byte, m Method, items []BatchItem) ([]byte, error) {
	wires := make([]WireItem, len(items))
	for i, it := range items {
		if it.Proof == nil || !answers(it.Proof, it.VS, it.VT) {
			return nil, fmt.Errorf("%w: batch item %d has no proof of %d→%d", ErrMalformedProof, i, it.VS, it.VT)
		}
		wires[i] = WireItem{VS: it.VS, VT: it.VT, Wire: it.Proof.AppendBinary(nil)}
	}
	return AppendWireBatch(buf, m, wires)
}

// AppendWireBatch frames already-encoded proofs of method m — the serving
// layer's cached wires, untouched. It is the container's only writer.
func AppendWireBatch(buf []byte, m Method, items []WireItem) ([]byte, error) {
	if _, ok := LookupMethod(m); !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("%w: %d items exceeds batch limit", ErrMalformedProof, len(items))
	}
	buf = append(buf, proofBatchMagic...)
	buf = appendBytes(buf, []byte(m))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	first := make(map[string]uint32, len(items))
	for i, it := range items {
		buf = binary.BigEndian.AppendUint32(buf, uint32(it.VS))
		buf = binary.BigEndian.AppendUint32(buf, uint32(it.VT))
		if j, dup := first[string(it.Wire)]; dup {
			buf = append(buf, batchItemBackref)
			buf = binary.BigEndian.AppendUint32(buf, j)
			continue
		}
		first[string(it.Wire)] = uint32(i)
		buf = append(buf, batchItemBody)
		buf = appendBytes(buf, it.Wire)
	}
	return buf, nil
}

// DecodeProofBatch parses a batch blob, decoding every proof body.
// Allocations are bounded by the bytes actually present, never by the
// claimed count, and the four rules above are enforced.
func DecodeProofBatch(buf []byte) (*ProofBatch, int, error) {
	r := wireReader{buf: buf}
	if string(r.take(len(proofBatchMagic), "batch magic")) != proofBatchMagic {
		r.fail("bad batch magic")
	}
	m := Method(r.bytes("batch method"))
	if r.err != nil {
		return nil, 0, r.err
	}
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	count := int(r.u32("item list"))
	if count > maxBatchItems || count > r.remaining()/batchItemMin {
		r.fail("item list truncated")
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	items := make([]BatchItem, 0, count)
	hasBody := make([]bool, 0, count)
	seen := make(map[string]struct{}, count)
	for i := 0; i < count; i++ {
		vs := graph.NodeID(r.u32("item"))
		vt := graph.NodeID(r.u32("item"))
		tag := r.u8("item")
		var pr Proof
		switch {
		case r.err != nil:
		case tag == batchItemBody:
			body := r.bytes("item body")
			if _, dup := seen[string(body)]; dup {
				r.fail("duplicate body at item %d must be a backref", i)
			}
			seen[string(body)] = struct{}{}
			if r.err == nil {
				var n int
				if pr, n, r.err = impl.DecodeProof(body); r.err == nil && n != len(body) {
					r.fail("item %d body has %d trailing bytes", i, len(body)-n)
				}
			}
		case tag == batchItemBackref:
			j := r.u32("item")
			if r.err == nil && (int64(j) >= int64(i) || !hasBody[j]) {
				r.fail("item %d backref %d invalid", i, j)
			}
			if r.err == nil {
				pr = items[j].Proof
			}
		default:
			r.fail("bad item tag %d", tag)
		}
		if r.err == nil && !answers(pr, vs, vt) {
			r.fail("item %d is not a proof of %d→%d", i, vs, vt)
		}
		if r.err != nil {
			return nil, 0, r.err
		}
		items = append(items, BatchItem{VS: vs, VT: vt, Proof: pr})
		hasBody = append(hasBody, tag == batchItemBody)
	}
	return &ProofBatch{Method: m, items: items}, r.off, nil
}
