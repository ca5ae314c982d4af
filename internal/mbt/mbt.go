// Package mbt implements Merkle B-trees over materialized shortest path
// distances, the distance ADS of the FULL and HYP methods (paper §IV-B,
// §V-B): tuples ⟨vi.id, vj.id, dist(vi, vj)⟩ stored under the composite key
// (vi.id, vj.id), authenticated bottom-up into a signed root, with
// verification objects for point lookups.
//
// Two variants are provided:
//
//   - Tree: a tree over an explicit sorted key set (HYP's hyper-edge
//     distances, where only border pairs are materialized), which keeps
//     only its upper Merkle levels and regenerates the rest from the
//     caller's entries on demand.
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
	"sync"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
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

// GroupLeaves is G, the leaf count of the groups a Tree regenerates: the
// tree stores only its levels from the one with at most ⌈n/G⌉ nodes up.
// On the benchmark world's HYP tree (206,403 leaves, fanout 2, SHA-1)
// that keeps 0.52 MB of the 8.26 MB a whole tree holds. G = 8 would keep
// 1.03 MB — resident on every replica and copied by every patch — to save
// a HYP proof about 5 µs of the 9–10 µs of re-hashing it pays at G = 16
// (DESIGN §4.1).
const GroupLeaves = 16

// Source appends the entries at leaf indices [lo, hi) to dst, in leaf
// order — strictly increasing by key — and returns the extended slice.
// Tree's whole-tree passes call it from several goroutines at once.
type Source func(dst []Entry, lo, hi int) []Entry

// Tree is the Merkle B-tree over an explicit key set (HYP's hyper-edge
// distances). It stores only the Merkle levels whose nodes cover about
// GroupLeaves leaves or more (mht.Top): the entries have one home, the
// caller's Source — HYP's are a function of hiti's border rows — and the
// leaf digests and lower levels are a function of the entries, so every
// proof, patch and audit re-hashes the groups it needs from the Source,
// the way Forest regenerates rows.
type Tree struct {
	top *mht.Top
	src Source
}

// entryBufs pools the entry runs appendLeaves reads a Source into.
var entryBufs = sync.Pool{New: func() any { return new([]Entry) }}

// leaves is the tree's mht.LeafFn: the digests of entries [lo, hi).
func (t *Tree) leaves(dst []byte, lo, hi int) []byte {
	return appendLeaves(dst, t.top.Alg(), t.src, lo, hi)
}

// appendLeaves appends the leaf digests of src's entries [lo, hi) to dst.
func appendLeaves(dst []byte, alg digest.Alg, src Source, lo, hi int) []byte {
	buf := entryBufs.Get().(*[]Entry)
	*buf = src((*buf)[:0], lo, hi)
	var msg [entrySize]byte
	for _, e := range *buf {
		dst = alg.AppendSum(dst, e.AppendBinary(msg[:0]))
	}
	entryBufs.Put(buf)
	return dst
}

// Build constructs the tree over src's n entries, which must be strictly
// increasing by key: callers own the leaf order and emit it by
// construction, so the one comparison rejects out-of-order and duplicate
// keys alike and nothing here sorts. Neither the entries nor their digests
// are ever held all at once.
func Build(alg digest.Alg, fanout, n int, src Source) (*Tree, error) {
	if n <= 0 {
		return nil, errors.New("mbt: no entries")
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("mbt: invalid hash algorithm %d", alg)
	}
	const run = 4096
	buf := make([]Entry, 0, run)
	var prev Key
	for lo := 0; lo < n; lo += run {
		buf = src(buf[:0], lo, min(lo+run, n))
		for i, e := range buf {
			if lo+i > 0 && e.Key <= prev {
				return nil, fmt.Errorf("mbt: key %d at entry %d does not follow key %d", e.Key, lo+i, prev)
			}
			prev = e.Key
		}
	}
	top, err := mht.BuildTop(alg, fanout, n, GroupLeaves, func(dst []byte, lo, hi int) []byte {
		return appendLeaves(dst, alg, src, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return &Tree{top: top, src: src}, nil
}

// UpdateValues returns the tree over src, whose entries differ from the
// receiver's exactly at moved's leaf indices — callers hand over only
// entries whose value moved (the key set never changes under edge
// re-weighting), and src is the new home of every value. The groups
// holding a moved entry are re-hashed and only the stored levels are
// copied; the receiver stays valid for concurrent readers. Byte-identical
// to Build over src. With nothing moved the result shares the receiver's
// levels, bound to src.
func (t *Tree) UpdateValues(src Source, moved []ProvenEntry) (*Tree, error) {
	dirty := make([]int, len(moved))
	for k, e := range moved {
		dirty[k] = int(e.Index)
	}
	top, err := t.top.UpdateLeaves(dirty, func(dst []byte, lo, hi int) []byte {
		return appendLeaves(dst, t.top.Alg(), src, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return &Tree{top: top, src: src}, nil
}

// RehydrateTree reconstructs a tree over n entries from its stored levels
// (Stored) — the snapshot load path, which hashes nothing and touches no
// entry. n is the entry count the caller's key layout implies; stored must
// be the tree over the cut level of an n-leaf tree. Digest values are
// trusted (see mht.Rehydrate): a lying snapshot produces proofs that fail
// client verification, nothing worse, and the certificate audit finds it.
func RehydrateTree(n int, stored *mht.Tree, src Source) (*Tree, error) {
	top, err := mht.RehydrateTop(n, GroupLeaves, stored)
	if err != nil {
		return nil, err
	}
	return &Tree{top: top, src: src}, nil
}

// Root returns the signed-root digest of the tree.
func (t *Tree) Root() []byte { return t.top.Root() }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.top.NumLeaves() }

// Alg returns the tree's hash algorithm.
func (t *Tree) Alg() digest.Alg { return t.top.Alg() }

// Fanout returns the tree's fanout.
func (t *Tree) Fanout() int { return t.top.Fanout() }

// Stored returns the Merkle levels the tree keeps, as the mht.Tree over
// the cut level (mht.Top.Stored): what a snapshot writes. Read-only.
func (t *Tree) Stored() *mht.Tree { return t.top.Stored() }

// Audit re-hashes every entry the Source holds, group by group, and folds
// the groups into the stored levels (mht.Top.Audit): a pass and a root
// equal to a trusted one vouch for every entry.
func (t *Tree) Audit() error { return t.top.Audit(t.leaves) }

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
// not detected here: it fails the client's root check. The proof holds
// nothing of the scratch.
func (t *Tree) Prove(s *mht.ProveScratch, entries []ProvenEntry) (*Proof, error) {
	if len(entries) == 0 {
		return nil, errors.New("mbt: no leaves to prove")
	}
	idx := s.Indices(len(entries))
	for n, e := range entries {
		idx[n] = int(e.Index)
	}
	mp, err := t.top.ProveWith(s, t.leaves, idx)
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
