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
	if len(buf) < len(proofBatchMagic) || string(buf[:len(proofBatchMagic)]) != proofBatchMagic {
		return nil, 0, fmt.Errorf("%w: bad batch magic", ErrMalformedProof)
	}
	off := len(proofBatchMagic)
	methodBytes, n, err := decodeBytes(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	m := Method(methodBytes)
	impl, ok := LookupMethod(m)
	if !ok {
		return nil, 0, fmt.Errorf("%w %q", ErrUnknownMethod, m)
	}
	if len(buf[off:]) < 4 {
		return nil, 0, fmt.Errorf("%w: item list truncated", ErrMalformedProof)
	}
	count := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if count > maxBatchItems || count > len(buf[off:])/batchItemMin {
		return nil, 0, fmt.Errorf("%w: item list truncated", ErrMalformedProof)
	}
	items := make([]BatchItem, 0, count)
	hasBody := make([]bool, 0, count)
	seen := make(map[string]struct{}, count)
	for i := 0; i < count; i++ {
		if len(buf[off:]) < batchItemMin {
			return nil, 0, fmt.Errorf("%w: item %d truncated", ErrMalformedProof, i)
		}
		vs := graph.NodeID(binary.BigEndian.Uint32(buf[off:]))
		vt := graph.NodeID(binary.BigEndian.Uint32(buf[off+4:]))
		tag := buf[off+8]
		off += 9
		var pr Proof
		switch tag {
		case batchItemBody:
			body, n, err := decodeBytes(buf[off:])
			if err != nil {
				return nil, 0, err
			}
			off += n
			if _, dup := seen[string(body)]; dup {
				return nil, 0, fmt.Errorf("%w: duplicate body at item %d must be a backref", ErrMalformedProof, i)
			}
			seen[string(body)] = struct{}{}
			var bn int
			if pr, bn, err = impl.DecodeProof(body); err != nil {
				return nil, 0, err
			}
			if bn != len(body) {
				return nil, 0, fmt.Errorf("%w: item %d body has %d trailing bytes", ErrMalformedProof, i, len(body)-bn)
			}
		case batchItemBackref:
			j := binary.BigEndian.Uint32(buf[off:])
			off += 4
			if int64(j) >= int64(i) || !hasBody[j] {
				return nil, 0, fmt.Errorf("%w: item %d backref %d invalid", ErrMalformedProof, i, j)
			}
			pr = items[j].Proof
		default:
			return nil, 0, fmt.Errorf("%w: bad item tag %d", ErrMalformedProof, tag)
		}
		if !answers(pr, vs, vt) {
			return nil, 0, fmt.Errorf("%w: item %d is not a proof of %d→%d", ErrMalformedProof, i, vs, vt)
		}
		items = append(items, BatchItem{VS: vs, VT: vt, Proof: pr})
		hasBody = append(hasBody, tag == batchItemBody)
	}
	return &ProofBatch{Method: m, items: items}, off, nil
}
