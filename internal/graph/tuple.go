package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Tuple is the extended-tuple Φ(v) of a node v (paper Eq. 1):
//
//	Φ(v) = ⟨v.id, v.x, v.y, {⟨v', W(v, v')⟩ | (v, v') ∈ E}⟩
//
// It encapsulates the node's attributes and its full adjacency information,
// and is the unit of authentication in the network Merkle tree. Methods that
// need additional authenticated per-node hints (LDM landmark vectors, HYP
// cell/border flags) carry them in Extra, which is covered by the digest.
type Tuple struct {
	ID   NodeID
	X, Y float64
	Adj  []Edge // sorted by neighbor ID

	// Extra holds method-specific authenticated hint bytes appended to the
	// canonical encoding before hashing (Eq. 4 for LDM, Eq. 7 for HYP). For
	// the base methods it is nil.
	Extra []byte
}

// TupleOf builds the extended-tuple of node v. Freeze keeps the builder's
// ascending neighbor order, so Adj is the network's own list, not a copy —
// read-only, like Neighbors — and the encoding is canonical as it stands.
func (c *CSR) TupleOf(v NodeID) Tuple {
	return Tuple{ID: v, X: c.xs[v], Y: c.ys[v], Adj: c.Neighbors(v)}
}

// AppendBinary appends the canonical binary encoding of Φ(v) to buf and
// returns the extended slice. The layout is:
//
//	id uint32 | x float64 | y float64 | deg uint32 | deg×(to uint32, w float64) | extra
//
// All integers are big-endian. This encoding is the message hashed into the
// network Merkle tree, and also the on-the-wire form inside proofs.
func (t Tuple) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.ID))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.X))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.Y))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Adj)))
	for _, e := range t.Adj {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.To))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	buf = append(buf, t.Extra...)
	return buf
}

// EncodedSize returns the exact byte size of the canonical encoding,
// including Extra. This is the per-tuple contribution to the communication
// overhead reported in the experiments.
func (t Tuple) EncodedSize() int {
	return 4 + 8 + 8 + 4 + 12*len(t.Adj) + len(t.Extra)
}

// DecodeTuple parses a canonical tuple encoding produced by AppendBinary.
// extraLen gives the length of the trailing method-specific hint bytes;
// callers that embed tuples in streams must know it from context (the base
// methods use 0). It returns the tuple and the number of bytes consumed.
func DecodeTuple(buf []byte, extraLen int) (Tuple, int, error) {
	const head = 4 + 8 + 8 + 4
	if len(buf) < head {
		return Tuple{}, 0, fmt.Errorf("graph: tuple truncated (%d bytes)", len(buf))
	}
	t := Tuple{
		ID: NodeID(binary.BigEndian.Uint32(buf)),
		X:  math.Float64frombits(binary.BigEndian.Uint64(buf[4:])),
		Y:  math.Float64frombits(binary.BigEndian.Uint64(buf[12:])),
	}
	deg := int(binary.BigEndian.Uint32(buf[20:]))
	need := head + 12*deg + extraLen
	if deg < 0 || len(buf) < need {
		return Tuple{}, 0, fmt.Errorf("graph: tuple adjacency truncated (deg=%d, have %d bytes)", deg, len(buf))
	}
	t.Adj = make([]Edge, deg)
	off := head
	for i := 0; i < deg; i++ {
		t.Adj[i] = Edge{
			To: NodeID(binary.BigEndian.Uint32(buf[off:])),
			W:  math.Float64frombits(binary.BigEndian.Uint64(buf[off+4:])),
		}
		off += 12
	}
	if extraLen > 0 {
		t.Extra = append([]byte(nil), buf[off:off+extraLen]...)
		off += extraLen
	}
	return t, off, nil
}

// Weight returns the weight of the edge from this tuple's node to neighbor
// `to`, and whether such an edge exists.
func (t Tuple) Weight(to NodeID) (float64, bool) {
	// Adjacency is sorted by ID; binary search.
	i := sort.Search(len(t.Adj), func(i int) bool { return t.Adj[i].To >= to })
	if i < len(t.Adj) && t.Adj[i].To == to {
		return t.Adj[i].W, true
	}
	return 0, false
}
