package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// This file is the client's view of a proof's tuple set — the one every
// method verifies through. Records are parsed straight from their wire
// bytes into flat per-slot arrays (a slot is a record's index in the
// proof), so verifying costs what the protocol costs — one hash per record
// and per touched Merkle node, one signature check, a search linear in the
// proof's edges — and, on a pooled scratch, allocates nothing per record.
//
// Everything here is sized from bytes actually present, never from a count
// the (untrusted) encoding claims: a tuple's edges are only appended once
// its record is known to hold them, landmark units likewise, and the hash
// index is sized from the records handed in. Searches index their state by
// slot, so node IDs — attacker-chosen before authentication — never size an
// array.

// tupleExtra names the method annotation that follows the base tuple in
// every record of a proof: nothing (DIJ, FULL — the zero value), a landmark
// payload under the proof's hint parameters (LDM, Eq. 4), or a cell id and
// border flag (HYP, Eq. 7).
type tupleExtra struct {
	ldm landmark.Params // C > 0 ⇔ records carry landmark payloads
	hyp bool
}

var (
	plainTuples = tupleExtra{}
	hypTuples   = tupleExtra{hyp: true}
)

type tupleTable struct {
	ids   []graph.NodeID // slot → node
	adjLo []int32        // slot s's edges are edges[adjLo[s]:adjLo[s+1]]
	edges []graph.Edge
	index []int32 // open-addressed node → slot+1 (0 = empty); power-of-two length

	// Leaf digests in record order (slab) and as the position-sorted list
	// the Merkle fold consumes.
	slab   []byte
	keys   []uint64 // pos<<32 | slot
	leaves []mht.Known

	// LDM: a slot either carries its own quantized vector
	// (units[vec[s]:vec[s]+C]) or, compressed, a reference node and error.
	params landmark.Params
	vec    []int32 // -1 when compressed
	ref    []graph.NodeID
	eps    []uint32
	units  []uint32

	// HYP annotations.
	cell   []geom.CellID
	border []bool
}

// tableSeed keys the node index per process, so the probe sequences a
// hostile proof would have to collide are not predictable from outside
// (the property Go's seeded maps gave the map-based table).
var tableSeed = rand.Uint32()

func (t *tupleTable) bucket(v graph.NodeID) int {
	h := uint32(v) ^ tableSeed
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int(h) & (len(t.index) - 1)
}

// slot returns the slot of node v's tuple, or -1 if the proof has none.
func (t *tupleTable) slot(v graph.NodeID) int32 {
	for b := t.bucket(v); ; b = (b + 1) & (len(t.index) - 1) {
		e := t.index[b]
		if e == 0 {
			return -1
		}
		if t.ids[e-1] == v {
			return e - 1
		}
	}
}

func (t *tupleTable) adj(s int32) []graph.Edge { return t.edges[t.adjLo[s]:t.adjLo[s+1]] }

// load parses recs into the table and hashes each record into its leaf
// digest. A proof is a set: any node or leaf position appearing twice is
// malformed, whatever the second record says — honest providers never
// repeat one, and a repeat that were merely skipped would put
// unauthenticated annotation bytes in front of the search.
func (t *tupleTable) load(alg digest.Alg, recs []tupleRecord, extra tupleExtra) error {
	n := len(recs)
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if size <= cap(t.index) {
		t.index = t.index[:size]
		clear(t.index)
	} else {
		t.index = make([]int32, size)
	}
	t.ids, t.adjLo, t.edges = t.ids[:0], append(t.adjLo[:0], 0), t.edges[:0]
	t.slab, t.keys = t.slab[:0], t.keys[:0]
	t.params, t.vec, t.ref, t.eps, t.units = extra.ldm, t.vec[:0], t.ref[:0], t.eps[:0], t.units[:0]
	t.cell, t.border = t.cell[:0], t.border[:0]

	const head = 4 + 8 + 8 + 4
	for i, r := range recs {
		b := r.Bytes
		if len(b) < head {
			return fmt.Errorf("%w: record %d: tuple truncated (%d bytes)", ErrMalformedProof, i, len(b))
		}
		id := graph.NodeID(binary.BigEndian.Uint32(b))
		deg := int(binary.BigEndian.Uint32(b[20:]))
		if deg > (len(b)-head)/12 {
			return fmt.Errorf("%w: record %d: tuple adjacency truncated (deg=%d, have %d bytes)", ErrMalformedProof, i, deg, len(b))
		}
		off := head
		for k := 0; k < deg; k++ {
			t.edges = append(t.edges, graph.Edge{
				To: graph.NodeID(binary.BigEndian.Uint32(b[off:])),
				W:  math.Float64frombits(binary.BigEndian.Uint64(b[off+4:])),
			})
			off += 12
		}
		rest := b[off:]
		switch {
		case extra.ldm.C > 0:
			p, units, used, err := landmark.DecodePayloadInto(t.units, rest, extra.ldm.C, extra.ldm.Bits)
			if err != nil {
				return fmt.Errorf("%w: record %d extra: %v", ErrMalformedProof, i, err)
			}
			vec := int32(-1)
			if p.HasVec {
				vec = int32(len(t.units))
			}
			t.units, t.vec, t.ref, t.eps = units, append(t.vec, vec), append(t.ref, p.Ref), append(t.eps, p.Eps)
			rest = rest[used:]
		case extra.hyp:
			cell, isBorder, err := hiti.DecodeExtra(rest)
			if err != nil {
				return fmt.Errorf("%w: record %d extra: %v", ErrMalformedProof, i, err)
			}
			t.cell, t.border = append(t.cell, cell), append(t.border, isBorder)
			rest = rest[hiti.ExtraSize:]
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: record %d has %d trailing bytes", ErrMalformedProof, i, len(rest))
		}
		bkt := t.bucket(id)
		for ; t.index[bkt] != 0; bkt = (bkt + 1) & (size - 1) {
			if t.ids[t.index[bkt]-1] == id {
				return fmt.Errorf("%w: node %d appears twice", ErrMalformedProof, id)
			}
		}
		t.index[bkt] = int32(i + 1)
		t.ids, t.adjLo = append(t.ids, id), append(t.adjLo, int32(len(t.edges)))
		t.slab = alg.AppendSum(t.slab, b)
		t.keys = append(t.keys, uint64(r.Pos)<<32|uint64(i))
	}

	// Providers emit records in settle (DIJ) or path (FULL) order; the fold
	// wants them by leaf position.
	if !slices.IsSorted(t.keys) {
		slices.Sort(t.keys)
	}
	t.leaves = t.leaves[:0]
	dsize := alg.Size()
	for k, key := range t.keys {
		if k > 0 && key>>32 == t.keys[k-1]>>32 {
			return fmt.Errorf("%w: leaf position %d appears twice", ErrMalformedProof, key>>32)
		}
		at := int(uint32(key)) * dsize
		t.leaves = append(t.leaves, mht.Known{Index: uint32(key >> 32), Digest: t.slab[at : at+dsize : at+dsize]})
	}
	return nil
}

// lb is the Lemma 4 lower bound between the nodes of slots u and v, from
// their authenticated payloads. A compressed node resolves through its
// reference node, whose tuple must be present and carry its own vector.
func (t *tupleTable) lb(u, v int32) (float64, error) {
	vu, eu, err := t.vector(u)
	if err != nil {
		return 0, err
	}
	vv, ev, err := t.vector(v)
	if err != nil {
		return 0, err
	}
	return landmark.LowerBound(vu, vv, eu, ev, t.params.Lambda), nil
}

func (t *tupleTable) vector(s int32) ([]uint32, uint32, error) {
	eps := uint32(0)
	if t.vec[s] < 0 {
		r := t.slot(t.ref[s])
		if r < 0 {
			return nil, 0, fmt.Errorf("node %d references %d whose payload is missing", t.ids[s], t.ref[s])
		}
		if t.vec[r] < 0 {
			return nil, 0, fmt.Errorf("reference node %d of %d is itself compressed", t.ref[s], t.ids[s])
		}
		s, eps = r, t.eps[s]
	}
	lo := int(t.vec[s])
	return t.units[lo : lo+t.params.C], eps, nil
}

// verifyScratch is everything one proof verification needs beyond the proof
// itself: the tuple table, the Merkle fold's storage, the signed-message
// buffer and the slot-indexed search state. Pooled, so a client verifying a
// stream of proofs reuses one set of arrays; nothing in it outlives the
// Verify* call that acquired it.
type verifyScratch struct {
	tab  tupleTable
	fold mht.Scratch
	msg  []byte // the signed message, ctx‖root

	// Search state, indexed by slot. dist[s] is meaningful once mark[s] is
	// nonzero.
	dist []float64
	mark []uint8
	heap sp.Heap

	borders []borderDist        // HYP: the source cell's settled border nodes
	hyperW  map[mbt.Key]float64 // HYP: authenticated hyper-edge weights
}

type borderDist struct {
	slot int32
	dist float64
}

const (
	markSeen uint8 = 1 + iota // labelled with a tentative distance
	markDone                  // settled: dist is exact
)

var verifyPool = sync.Pool{New: func() any { return &verifyScratch{hyperW: make(map[mbt.Key]float64)} }}

func acquireVerifyScratch() *verifyScratch  { return verifyPool.Get().(*verifyScratch) }
func releaseVerifyScratch(s *verifyScratch) { verifyPool.Put(s) }

// authenticate loads the proof's tuple records into the table, folds their
// digests with the integrity proof to the network root, and checks the
// owner's signature over ctx‖root. Only after it returns nil may anything
// in the table be believed.
func (s *verifyScratch) authenticate(v SigVerifier, recs []tupleRecord, extra tupleExtra,
	proof *mht.Proof, ctx, signature []byte) error {
	if err := s.tab.load(proof.Alg, recs, extra); err != nil {
		return reject(err)
	}
	root, err := s.fold.Reconstruct(proof, s.tab.leaves)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
	}
	return s.checkSig(v, ctx, root, signature)
}

// checkSig verifies the owner's signature over ctx‖root.
func (s *verifyScratch) checkSig(v SigVerifier, ctx, root, signature []byte) error {
	s.msg = append(append(s.msg[:0], ctx...), root...)
	if err := v.Verify(s.msg, signature); err != nil {
		return reject(ErrBadSignature)
	}
	return nil
}

// resetSearch clears the search state for a fresh run over the table.
func (s *verifyScratch) resetSearch() {
	n := len(s.tab.ids)
	if n > cap(s.mark) {
		s.mark, s.dist = make([]uint8, n), make([]float64, n)
	}
	s.mark, s.dist = s.mark[:n], s.dist[:n]
	clear(s.mark)
	s.heap.Reset(n)
}
