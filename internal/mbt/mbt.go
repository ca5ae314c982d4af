// Package mbt implements Merkle B-trees over materialized shortest path
// distances, the distance ADS of the FULL and HYP methods (paper §IV-B,
// §V-B): tuples ⟨vi.id, vj.id, dist(vi, vj)⟩ stored under the composite key
// (vi.id, vj.id), authenticated bottom-up into a signed root, with
// verification objects for point lookups.
//
// Two variants are provided:
//
//   - Tree: an in-memory tree over an explicit sorted key set (HYP's
//     hyper-edge distances, where only border pairs are materialized).
//   - Forest: a two-level tree over the implicit |V|×|V| all-pairs matrix
//     (FULL), which never holds the quadratic matrix in memory: per-source
//     row subtrees are folded into a root during construction and
//     regenerated on demand for proofs.
package mbt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/par"
)

// Key is the composite (vi.id, vj.id) search key.
type Key uint64

// MakeKey packs two node IDs into a composite key that sorts by (i, j).
func MakeKey(i, j uint32) Key { return Key(uint64(i)<<32 | uint64(j)) }

// Split unpacks the composite key.
func (k Key) Split() (i, j uint32) { return uint32(k >> 32), uint32(k) }

// Entry is one authenticated distance tuple.
type Entry struct {
	Key   Key
	Value float64
}

// entrySize is the wire size of an entry: 8-byte key + 8-byte distance.
const entrySize = 16

// AppendBinary appends the canonical entry encoding (hashed into leaves and
// sent inside proofs).
func (e Entry) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Key))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Value))
	return buf
}

func decodeEntry(buf []byte) (Entry, error) {
	if len(buf) < entrySize {
		return Entry{}, fmt.Errorf("mbt: entry truncated (%d bytes)", len(buf))
	}
	return Entry{
		Key:   Key(binary.BigEndian.Uint64(buf)),
		Value: math.Float64frombits(binary.BigEndian.Uint64(buf[8:])),
	}, nil
}

// Tree is an in-memory Merkle B-tree over an explicit sorted key set.
type Tree struct {
	keys []Key
	vals []float64
	mt   *mht.Tree
}

// columns splits entries, which must be strictly increasing by key, into a
// tree's key and value columns. The one comparison rejects out-of-order and
// duplicate keys alike: callers own the leaf order and emit it by
// construction, so nothing here clones or sorts.
func columns(entries []Entry) (*Tree, error) {
	t := &Tree{keys: make([]Key, len(entries)), vals: make([]float64, len(entries))}
	for i, e := range entries {
		if i > 0 && e.Key <= entries[i-1].Key {
			return nil, fmt.Errorf("mbt: key %d at entry %d does not follow key %d", e.Key, i, entries[i-1].Key)
		}
		t.keys[i], t.vals[i] = e.Key, e.Value
	}
	return t, nil
}

// Build constructs a tree from entries, which must be strictly increasing
// by key. Leaf digests are hashed in parallel into one slab.
func Build(alg digest.Alg, fanout int, entries []Entry) (*Tree, error) {
	if len(entries) == 0 {
		return nil, errors.New("mbt: no entries")
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("mbt: invalid hash algorithm %d", alg)
	}
	t, err := columns(entries)
	if err != nil {
		return nil, err
	}
	size := alg.Size()
	slab := make([]byte, len(entries)*size)
	leaves := make([][]byte, len(entries))
	par.Chunks(len(entries), 0, func(lo, hi int) {
		var buf [entrySize]byte
		for i := lo; i < hi; i++ {
			leaves[i] = alg.AppendSum(slab[i*size:i*size:(i+1)*size], entries[i].AppendBinary(buf[:0]))
		}
	})
	if t.mt, err = mht.Build(alg, fanout, leaves); err != nil {
		return nil, err
	}
	return t, nil
}

// UpdateValues returns a tree in which each given entry's value replaces
// the one at its leaf index (the key there must match; the key set never
// changes under edge re-weighting), plus the number of leaves actually
// rewritten. Entries whose value is bit-identical are skipped, and only the
// dirty Merkle paths are rehashed — the receiver stays valid for concurrent
// readers. Byte-identical to Build over the patched entry set.
func (t *Tree) UpdateValues(entries []ProvenEntry) (*Tree, int, error) {
	alg := t.mt.Alg()
	dirty := make(map[int][]byte, len(entries))
	var vals []float64
	var buf []byte
	for _, e := range entries {
		i := int(e.Index)
		if i >= len(t.keys) || t.keys[i] != e.Key {
			return nil, 0, fmt.Errorf("mbt: key %d is not at leaf %d", e.Key, i)
		}
		if math.Float64bits(t.vals[i]) == math.Float64bits(e.Value) {
			continue
		}
		if vals == nil {
			vals = append([]float64(nil), t.vals...)
		}
		vals[i] = e.Value
		buf = e.Entry.AppendBinary(buf[:0])
		dirty[i] = alg.Sum(buf)
	}
	if len(dirty) == 0 {
		return t, 0, nil
	}
	mt, err := t.mt.UpdateLeaves(dirty)
	if err != nil {
		return nil, 0, err
	}
	return &Tree{keys: t.keys, vals: vals, mt: mt}, len(dirty), nil
}

// MHT exposes the underlying Merkle tree for snapshot serialization
// (dehydration); pair with RehydrateTree. Read-only.
func (t *Tree) MHT() *mht.Tree { return t.mt }

// RehydrateTree reconstructs a Tree from its entries — strictly increasing
// by key, as for Build — and an already rehydrated Merkle tree, without
// re-hashing any leaf: the snapshot load path. The entry count must match
// the tree's leaf count. Digest values are trusted (see mht.Rehydrate): a
// lying snapshot produces proofs that fail client verification, nothing
// worse.
func RehydrateTree(entries []Entry, mt *mht.Tree) (*Tree, error) {
	if mt == nil {
		return nil, errors.New("mbt: nil merkle tree")
	}
	if len(entries) != mt.NumLeaves() {
		return nil, fmt.Errorf("mbt: %d entries for %d leaves", len(entries), mt.NumLeaves())
	}
	t, err := columns(entries)
	if err != nil {
		return nil, err
	}
	t.mt = mt
	return t, nil
}

// Root returns the signed-root digest of the tree.
func (t *Tree) Root() []byte { return t.mt.Root() }

// Len returns the number of entries.
func (t *Tree) Len() int { return len(t.keys) }

// Index returns the leaf index of key.
func (t *Tree) Index(key Key) (int, bool) { return slices.BinarySearch(t.keys, key) }

// Lookup returns the value stored under key.
func (t *Tree) Lookup(key Key) (float64, bool) {
	if i, ok := t.Index(key); ok {
		return t.vals[i], true
	}
	return 0, false
}

// ProvenEntry is an entry plus its leaf position, as carried in proofs.
type ProvenEntry struct {
	Entry
	Index uint32
}

// Proof is the verification object for a set of point lookups: the claimed
// entries (with leaf positions) and the Merkle integrity proof binding them
// to the signed root.
type Proof struct {
	Entries []ProvenEntry
	MHT     *mht.Proof
}

// provePool recycles Merkle coverage scratch across queries, trees and
// epochs: its stamps are epoch-tagged and it regrows to any tree's shape,
// so a proof costs the leaves it touches, not the tree.
var provePool = sync.Pool{New: func() any { return new(mht.ProveScratch) }}

// Prove builds a proof for the entries at the given leaf indices, in the
// order given. Callers that know the key layout compute indices directly;
// Index serves those that hold only a key.
func (t *Tree) Prove(indices []int) (*Proof, error) {
	if len(indices) == 0 {
		return nil, errors.New("mbt: no leaves to prove")
	}
	p := &Proof{Entries: make([]ProvenEntry, len(indices))}
	for n, i := range indices {
		if i < 0 || i >= len(t.keys) {
			return nil, fmt.Errorf("mbt: leaf index %d out of range [0, %d)", i, len(t.keys))
		}
		p.Entries[n] = ProvenEntry{Entry: Entry{Key: t.keys[i], Value: t.vals[i]}, Index: uint32(i)}
	}
	s := provePool.Get().(*mht.ProveScratch)
	defer provePool.Put(s)
	var err error
	if p.MHT, err = t.mt.ProveWith(s, indices); err != nil {
		return nil, err
	}
	return p, nil
}

// Root reconstructs the tree root implied by the proof's entries and Merkle
// digests, without any trusted input. Callers bind the result to the data
// owner by checking a signature over it (or by comparing against a known
// root via Verify).
func (p *Proof) Root() ([]byte, error) {
	if p.MHT == nil {
		return nil, errors.New("mbt: proof missing Merkle part")
	}
	// Entries claiming one leaf twice are settled by Reconstruct: equal
	// digests fold once, differing ones are a conflict.
	size := p.MHT.Alg.Size()
	known := make([]mht.Known, len(p.Entries))
	digests := make([]byte, 0, len(p.Entries)*size)
	var buf []byte
	for i, e := range p.Entries {
		buf = e.Entry.AppendBinary(buf[:0])
		digests = p.MHT.Alg.AppendSum(digests, buf)
		known[i] = mht.Known{Index: e.Index, Digest: digests[i*size : (i+1)*size]}
	}
	return mht.Reconstruct(p.MHT, known)
}

// Verify reconstructs the root from the proof and compares it to the
// trusted root digest. On success the entries in the proof are authentic:
// each (key, value) pair was materialized by the data owner.
func (p *Proof) Verify(root []byte) error {
	got, err := p.Root()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return errors.New("mbt: root mismatch")
	}
	return nil
}

// Value returns the proven value for key, or an error if the proof does not
// contain it. Call after Verify.
func (p *Proof) Value(key Key) (float64, error) {
	for _, e := range p.Entries {
		if e.Key == key {
			return e.Value, nil
		}
	}
	return 0, fmt.Errorf("mbt: proof has no entry for key %d", key)
}

// EncodedSize returns the wire size of the proof: proven entries plus the
// Merkle entries (the distance-ADS share of the communication overhead).
func (p *Proof) EncodedSize() int {
	return 4 + len(p.Entries)*(entrySize+4) + p.MHT.EncodedSize()
}

// NumItems counts the items in the proof, matching the paper's "number of
// items" metric: one per proven entry plus one per Merkle digest.
func (p *Proof) NumItems() int { return len(p.Entries) + p.MHT.NumEntries() }

// AppendBinary serializes the proof:
//
//	numEntries uint32 | entries × (key, value, index uint32) | mht proof
func (p *Proof) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Entries)))
	for _, e := range p.Entries {
		buf = e.Entry.AppendBinary(buf)
		buf = binary.BigEndian.AppendUint32(buf, e.Index)
	}
	return p.MHT.AppendBinary(buf)
}

// DecodeProof parses a proof serialized by AppendBinary, returning the
// number of bytes consumed.
func DecodeProof(buf []byte) (*Proof, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("mbt: proof truncated")
	}
	count := int(binary.BigEndian.Uint32(buf))
	off := 4
	// Cap the up-front allocation by what the buffer can hold: a lying
	// count must not translate into a giant speculative allocation.
	capHint := count
	if m := len(buf[off:]) / (entrySize + 4); capHint > m {
		capHint = m
	}
	p := &Proof{Entries: make([]ProvenEntry, 0, capHint)}
	for i := 0; i < count; i++ {
		if len(buf[off:]) < entrySize+4 {
			return nil, 0, fmt.Errorf("mbt: proof entry %d truncated", i)
		}
		e, err := decodeEntry(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		idx := binary.BigEndian.Uint32(buf[off+entrySize:])
		p.Entries = append(p.Entries, ProvenEntry{Entry: e, Index: idx})
		off += entrySize + 4
	}
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	p.MHT = mp
	return p, off + n, nil
}
