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

// Tree is the Merkle B-tree over an explicit key set: the Merkle tree alone.
// The (key, value) pairs have one home, the caller's — HYP's are a function
// of hiti's border rows — so proofs and patches take the entries together
// with their leaf indices and nothing here mirrors them.
type Tree struct {
	mt *mht.Tree
}

// leafSlab hashes entries into a leaf slab, in parallel for large inputs.
func leafSlab(alg digest.Alg, n int, entry func(i int) Entry) []byte {
	size := alg.Size()
	slab := make([]byte, n*size)
	par.Chunks(n, 0, func(lo, hi int) {
		var buf [entrySize]byte
		for i := lo; i < hi; i++ {
			alg.AppendSum(slab[i*size:i*size:(i+1)*size], entry(i).AppendBinary(buf[:0]))
		}
	})
	return slab
}

// Build constructs a tree from entries, which must be strictly increasing
// by key: callers own the leaf order and emit it by construction, so the
// one comparison rejects out-of-order and duplicate keys alike and nothing
// here clones or sorts.
func Build(alg digest.Alg, fanout int, entries []Entry) (*Tree, error) {
	if len(entries) == 0 {
		return nil, errors.New("mbt: no entries")
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("mbt: invalid hash algorithm %d", alg)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, fmt.Errorf("mbt: key %d at entry %d does not follow key %d", entries[i].Key, i, entries[i-1].Key)
		}
	}
	mt, err := mht.Build(alg, fanout, leafSlab(alg, len(entries), func(i int) Entry { return entries[i] }))
	if err != nil {
		return nil, err
	}
	return &Tree{mt: mt}, nil
}

// UpdateValues returns a tree in which each given entry replaces the one at
// its leaf index; callers hand over only entries whose value moved (the key
// set never changes under edge re-weighting). Only the dirty Merkle paths
// are rehashed and the receiver stays valid for concurrent readers.
// Byte-identical to Build over the patched entry set.
func (t *Tree) UpdateValues(entries []ProvenEntry) (*Tree, error) {
	if len(entries) == 0 {
		return t, nil
	}
	alg := t.mt.Alg()
	slab := leafSlab(alg, len(entries), func(i int) Entry { return entries[i].Entry })
	size := alg.Size()
	dirty := make(map[int][]byte, len(entries))
	for n, e := range entries {
		dirty[int(e.Index)] = slab[n*size : (n+1)*size]
	}
	mt, err := t.mt.UpdateLeaves(dirty)
	if err != nil {
		return nil, err
	}
	return &Tree{mt: mt}, nil
}

// MHT exposes the underlying Merkle tree for snapshot serialization
// (dehydration); pair with RehydrateTree. Read-only.
func (t *Tree) MHT() *mht.Tree { return t.mt }

// RehydrateTree wraps an already rehydrated Merkle tree — the snapshot load
// path, which hashes nothing and touches no entry. n is the entry count the
// caller's key layout implies and must match the tree's leaf count. Digest
// values are trusted (see mht.Rehydrate): a lying snapshot produces proofs
// that fail client verification, nothing worse.
func RehydrateTree(mt *mht.Tree, n int) (*Tree, error) {
	if mt == nil {
		return nil, errors.New("mbt: nil merkle tree")
	}
	if n != mt.NumLeaves() {
		return nil, fmt.Errorf("mbt: %d entries for %d leaves", n, mt.NumLeaves())
	}
	return &Tree{mt: mt}, nil
}

// Root returns the signed-root digest of the tree.
func (t *Tree) Root() []byte { return t.mt.Root() }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.mt.NumLeaves() }

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

// Prove builds a proof for the given entries, which the caller derives from
// its key layout (value and leaf index both) and which the proof retains,
// in the order given. An entry that is not what its leaf was built from is
// not detected here: it fails the client's root check.
func (t *Tree) Prove(s *mht.ProveScratch, entries []ProvenEntry) (*Proof, error) {
	if len(entries) == 0 {
		return nil, errors.New("mbt: no leaves to prove")
	}
	idx := s.Indices(len(entries))
	for n, e := range entries {
		idx[n] = int(e.Index)
	}
	mp, err := t.mt.ProveWith(s, idx)
	if err != nil {
		return nil, err
	}
	return &Proof{Entries: entries, MHT: mp}, nil
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
