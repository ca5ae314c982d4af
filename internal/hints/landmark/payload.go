package landmark

import (
	"encoding/binary"
	"fmt"

	"github.com/authhints/spv/internal/graph"
)

// Payload is the per-node authenticated hint embedded in the extended-tuple
// Φ(v) (Eq. 4): either the node's own quantized landmark vector (b bits per
// landmark, packed), or a reference node plus compression error for
// compressed nodes. The payload bytes are covered by the node's digest in
// the network Merkle tree, so clients can trust whichever form they receive.
type Payload struct {
	HasVec bool
	Units  []uint32     // quantized units, present iff HasVec
	Ref    graph.NodeID // reference node v.θ, present iff !HasVec
	Eps    uint32       // compression error v.ε in λ units, iff !HasVec
}

// payload wire tags.
const (
	tagVector     = 0x01
	tagCompressed = 0x02
)

// PayloadOf extracts node v's payload from the hint set.
func (h *Hints) PayloadOf(v graph.NodeID) Payload {
	if h.Ref[v] == v {
		return Payload{HasVec: true, Units: h.Units[v]}
	}
	return Payload{Ref: h.Ref[v], Eps: h.Eps[v]}
}

// VectorPayloadSize returns the wire size of a vector payload for c
// landmarks at b bits: 1 tag byte plus the packed bitstream. This is the
// quantization win the paper's §V-A is after — c=200, b=12 costs 301 bytes
// instead of 1,601 for raw float64 vectors.
func VectorPayloadSize(c, bits int) int { return 1 + (c*bits+7)/8 }

// CompressedPayloadSize returns the wire size of a compressed payload:
// 1 tag byte + 4-byte reference ID + 4-byte ε.
const CompressedPayloadSize = 1 + 4 + 4

// EncodedSize returns the payload's wire size given the hint parameters.
func (p Payload) EncodedSize(c, bits int) int {
	if p.HasVec {
		return VectorPayloadSize(c, bits)
	}
	return CompressedPayloadSize
}

// AppendBinary encodes the payload.
func (p Payload) AppendBinary(bits int, buf []byte) []byte {
	if p.HasVec {
		buf = append(buf, tagVector)
		return appendPacked(buf, p.Units, bits)
	}
	buf = append(buf, tagCompressed)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Ref))
	buf = binary.BigEndian.AppendUint32(buf, p.Eps)
	return buf
}

// DecodePayload parses a payload for c landmarks at b bits, returning the
// payload and the number of bytes consumed.
func DecodePayload(buf []byte, c, bits int) (Payload, int, error) {
	p, _, n, err := DecodePayloadInto(nil, buf, c, bits)
	return p, n, err
}

// DecodePayloadInto is DecodePayload with a vector payload's units appended
// to arena (returned extended; Units aliases its tail) instead of allocated
// per payload — the form a client decoding hundreds of payloads per proof
// uses. Units are only unpacked once the buffer is known to hold all c of
// them, so a lying c cannot grow the arena past the bytes present.
func DecodePayloadInto(arena []uint32, buf []byte, c, bits int) (Payload, []uint32, int, error) {
	if len(buf) < 1 {
		return Payload{}, arena, 0, fmt.Errorf("landmark: payload truncated")
	}
	switch buf[0] {
	case tagVector:
		need := 1 + (c*bits+7)/8
		if len(buf) < need {
			return Payload{}, arena, 0, fmt.Errorf("landmark: vector payload truncated (%d of %d bytes)", len(buf), need)
		}
		at := len(arena)
		arena = appendUnpacked(arena, buf[1:need], c, bits)
		return Payload{HasVec: true, Units: arena[at:len(arena):len(arena)]}, arena, need, nil
	case tagCompressed:
		if len(buf) < CompressedPayloadSize {
			return Payload{}, arena, 0, fmt.Errorf("landmark: compressed payload truncated")
		}
		return Payload{
			Ref: graph.NodeID(binary.BigEndian.Uint32(buf[1:])),
			Eps: binary.BigEndian.Uint32(buf[5:]),
		}, arena, CompressedPayloadSize, nil
	default:
		return Payload{}, arena, 0, fmt.Errorf("landmark: unknown payload tag %#x", buf[0])
	}
}

// appendPacked packs each unit into bits bits, big-endian bit order.
func appendPacked(buf []byte, units []uint32, bits int) []byte {
	var acc uint64
	var nbits int
	for _, u := range units {
		acc = acc<<bits | uint64(u&((1<<bits)-1))
		nbits += bits
		for nbits >= 8 {
			nbits -= 8
			buf = append(buf, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		buf = append(buf, byte(acc<<(8-nbits)))
	}
	return buf
}

// appendUnpacked reverses appendPacked for c units of the given width,
// appending them to dst. buf must hold at least ⌈c·bits/8⌉ bytes.
func appendUnpacked(dst []uint32, buf []byte, c, bits int) []uint32 {
	var acc uint64
	var nbits, pos int
	for i := 0; i < c; i++ {
		for nbits < bits {
			acc = acc<<8 | uint64(buf[pos])
			pos++
			nbits += 8
		}
		nbits -= bits
		dst = append(dst, uint32(acc>>nbits)&((1<<bits)-1))
	}
	return dst
}

// Params are the global hint parameters a client needs to interpret
// payloads. They are covered by the owner's root signature (the core layer
// signs root ◦ params), so a provider cannot forge them.
type Params struct {
	C      int
	Bits   int
	Lambda float64
}

// Resolver evaluates Lemma 4 lower bounds on the client side from a set of
// authenticated payloads (one per tuple in the proof).
type Resolver struct {
	Params
	payloads map[graph.NodeID]Payload
}

// NewResolver creates an empty resolver for the given parameters.
func NewResolver(p Params) *Resolver {
	return &Resolver{Params: p, payloads: make(map[graph.NodeID]Payload)}
}

// Add registers node v's payload.
func (r *Resolver) Add(v graph.NodeID, p Payload) { r.payloads[v] = p }

// vector resolves the quantized vector and ε for node v, following the
// reference indirection at most one level (representatives always carry
// their own vectors).
func (r *Resolver) vector(v graph.NodeID) ([]uint32, uint32, error) {
	p, ok := r.payloads[v]
	if !ok {
		return nil, 0, fmt.Errorf("landmark: no payload for node %d", v)
	}
	if p.HasVec {
		return p.Units, 0, nil
	}
	rp, ok := r.payloads[p.Ref]
	if !ok {
		return nil, 0, fmt.Errorf("landmark: node %d references %d whose payload is missing", v, p.Ref)
	}
	if !rp.HasVec {
		return nil, 0, fmt.Errorf("landmark: reference node %d of %d is itself compressed", p.Ref, v)
	}
	return rp.Units, p.Eps, nil
}

// LB computes the Lemma 4 lower bound between u and v:
//
//	max{0, distLB^loose(u.θ, v.θ) − (u.ε + v.ε)·λ}
//
// It fails if a needed payload is absent — the client treats that as an
// invalid proof.
func (r *Resolver) LB(u, v graph.NodeID) (float64, error) {
	vu, eu, err := r.vector(u)
	if err != nil {
		return 0, err
	}
	vv, ev, err := r.vector(v)
	if err != nil {
		return 0, err
	}
	if len(vu) != len(vv) {
		return 0, fmt.Errorf("landmark: vector length mismatch (%d vs %d)", len(vu), len(vv))
	}
	return LowerBound(vu, vv, eu, ev, r.Lambda), nil
}

// LowerBound evaluates Lemma 4 on two equal-length quantized landmark
// vectors and their owners' compression errors (0 for a node carrying its
// own vector), at quantization step lambda.
func LowerBound(vu, vv []uint32, eu, ev uint32, lambda float64) float64 {
	var maxDiff uint32
	for i := range vu {
		var d uint32
		if vu[i] > vv[i] {
			d = vu[i] - vv[i]
		} else {
			d = vv[i] - vu[i]
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	// distLB^loose = (maxDiff − 1)·λ if maxDiff > 1 else 0 (Eq. 6);
	// subtract the compression penalty (Lemma 4), clamp at zero.
	if maxDiff <= 1 {
		return 0
	}
	loose := float64(maxDiff-1) * lambda
	penalty := float64(eu+ev) * lambda
	if loose <= penalty {
		return 0
	}
	return loose - penalty
}
