// Package mht implements the Merkle hash tree (MHT, [11] in the paper) used
// to authenticate graph data: a tree of configurable fanout whose leaves are
// the digests of the authenticated messages (extended-tuples Φ(v), distance
// tuples, ...) in a fixed ordering chosen by the data owner, and whose root
// is signed.
//
// The package provides multi-leaf proofs exactly per the paper's rule
// (§III-B): a hash entry h_i enters the integrity proof ΓT iff (i) the
// subtree of h_i contains no message from ΓS, and (ii) the parent of h_i
// does not itself satisfy (i). Clients reconstruct the root from their
// message digests plus the proof entries and compare it against the owner's
// signature.
package mht

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/par"
)

// MaxFanout bounds the tree fanout; the paper evaluates 2..32.
const MaxFanout = 256

// Tree is an immutable Merkle hash tree. A level is one contiguous slab of
// digests — digest i of level l is levels[l][i·|H| : (i+1)·|H|] — with
// levels[0] the leaves and levels[len-1] the single root. Each internal
// digest is H(child_0 ◦ ... ◦ child_{k-1}) over its (up to fanout) children,
// which are adjacent in the slab below, so a parent hashes one run of bytes.
//
// Children are grouped B⁺-tree style: a level of w nodes forms ⌈w/f⌉ groups
// with sizes as equal as possible, so no group is less than half full. This
// matches the paper's Figure 3, where four level-2 entries under fanout 3
// split into two groups of two (padded with ⊥ in the figure), not 3+1.
type Tree struct {
	alg    digest.Alg
	fanout int
	size   int // alg.Size()
	levels [][]byte
}

// grouping describes how one level of w nodes is partitioned into parent
// groups under fanout f.
type grouping struct {
	groups int // number of parent groups
	base   int // minimum group size
	rem    int // first rem groups hold base+1 children
}

func groupLevel(w, f int) grouping {
	g := grouping{groups: (w + f - 1) / f}
	g.base = w / g.groups
	g.rem = w % g.groups
	return g
}

// childRange returns the half-open child index range of parent p.
func (g grouping) childRange(p int) (first, last int) {
	if p < g.rem {
		first = p * (g.base + 1)
		return first, first + g.base + 1
	}
	first = g.rem*(g.base+1) + (p-g.rem)*g.base
	return first, first + g.base
}

// parentOf returns the parent group index of child c.
func (g grouping) parentOf(c int) int {
	boundary := g.rem * (g.base + 1)
	if c < boundary {
		return c / (g.base + 1)
	}
	return g.rem + (c-boundary)/g.base
}

// checkShape validates the parameters every constructor takes and returns
// the leaf count of a leaf slab.
func checkShape(alg digest.Alg, fanout int, leaves []byte) (int, error) {
	if !alg.Valid() {
		return 0, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	if fanout < 2 || fanout > MaxFanout {
		return 0, fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	}
	if len(leaves) == 0 {
		return 0, errors.New("mht: no leaves")
	}
	if len(leaves)%alg.Size() != 0 {
		return 0, fmt.Errorf("mht: leaf slab of %d bytes is not a multiple of the %d-byte digest", len(leaves), alg.Size())
	}
	return len(leaves) / alg.Size(), nil
}

// Build constructs a tree over the given leaf digests, one slab of
// len/|H| digests. The slab is retained (not copied); callers must not
// mutate it afterwards. One allocation per level.
func Build(alg digest.Alg, fanout int, leaves []byte) (*Tree, error) {
	n, err := checkShape(alg, fanout, leaves)
	if err != nil {
		return nil, err
	}
	size := alg.Size()
	height := 1
	for w := n; w > 1; w = groupLevel(w, fanout).groups {
		height++
	}
	t := &Tree{alg: alg, fanout: fanout, size: size, levels: make([][]byte, 1, height)}
	t.levels[0] = leaves
	// One closure for every level: it hashes the newest level from the one
	// below it.
	hash := func(lo, hi int) {
		cur, next := t.levels[len(t.levels)-2], t.levels[len(t.levels)-1]
		hashGroups(alg, cur, groupLevel(len(cur)/size, fanout), next, lo, hi)
	}
	for w := n; w > 1; {
		w = groupLevel(w, fanout).groups
		t.levels = append(t.levels, make([]byte, w*size))
		par.Chunks(w, 0, hash)
	}
	return t, nil
}

// hashGroups writes the digests of parents [lo, hi) into their slots of
// next. A parent's children are one contiguous run of cur, hashed in one
// call with the state on the stack.
func hashGroups(alg digest.Alg, cur []byte, grp grouping, next []byte, lo, hi int) {
	size := alg.Size()
	for p := lo; p < hi; p++ {
		first, last := grp.childRange(p)
		alg.AppendSum(next[p*size:p*size:(p+1)*size], cur[first*size:last*size])
	}
}

// BuildFromMessages hashes each message straight into the leaf slab —
// digest i is H(msgs[i]) — and builds the tree over it. Message hashing is
// fanned out like level hashing: it dominates owner outsourcing of large
// networks.
func BuildFromMessages(alg digest.Alg, fanout int, msgs [][]byte) (*Tree, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	size := alg.Size()
	slab := make([]byte, len(msgs)*size)
	par.Chunks(len(msgs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			alg.AppendSum(slab[i*size:i*size:(i+1)*size], msgs[i])
		}
	})
	return Build(alg, fanout, slab)
}

// UpdateLeaves returns a new tree in which leaf i carries digest d for
// every (i, d) in dirty, rehashing only the O(k·log n) internal digests on
// the dirty leaves' root paths. Copy-on-write is per level: each level is
// copied once (one pointer-free memmove) and the dirty paths are rehashed
// in place in the copy, so the receiver's bytes are never written and it
// remains fully usable by concurrent readers (in-flight proof
// constructions). The result is byte-identical to Build over the patched
// leaf slab.
func (t *Tree) UpdateLeaves(dirty map[int][]byte) (*Tree, error) {
	if len(dirty) == 0 {
		return t, nil
	}
	n, size := t.NumLeaves(), t.size
	for i, d := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("mht: dirty leaf %d out of range [0, %d)", i, n)
		}
		if len(d) != size {
			return nil, fmt.Errorf("mht: dirty leaf %d digest has %d bytes, want %d", i, len(d), size)
		}
	}
	nt := &Tree{alg: t.alg, fanout: t.fanout, size: size, levels: make([][]byte, len(t.levels))}
	for l, lvl := range t.levels {
		nt.levels[l] = bytes.Clone(lvl)
	}
	// Dirty positions at the current level, ascending and deduplicated.
	pos := make([]int, 0, len(dirty))
	for i, d := range dirty {
		copy(nt.levels[0][i*size:], d)
		pos = append(pos, i)
	}
	slices.Sort(pos)
	for l := 0; l+1 < len(nt.levels); l++ {
		cur, next := nt.levels[l], nt.levels[l+1]
		grp := groupLevel(t.width(l), t.fanout)
		parents := pos[:0]
		for _, p := range pos {
			pp := grp.parentOf(p)
			if len(parents) > 0 && parents[len(parents)-1] == pp {
				continue // ascending children share ascending parents
			}
			parents = append(parents, pp)
			hashGroups(t.alg, cur, grp, next, pp, pp+1)
		}
		pos = parents
	}
	return nt, nil
}

// Levels exposes the tree's level slabs — levels[0] the leaves, levels[len-1]
// the single root digest — for snapshot serialization (the dehydration half
// of the persistence hooks; Rehydrate is the other). The returned slices are
// the tree's own storage: read-only.
func (t *Tree) Levels() [][]byte { return t.levels }

// Rehydrate reconstructs a Tree from previously exported level slabs without
// recomputing a single hash — the snapshot load path, where interior
// digests were already paid for at outsourcing time. The level shape is
// validated exactly, in O(levels): the leaf slab must be a whole number of
// digests and every level above exactly as long as the B⁺-style grouping of
// the one below makes it, down to a single root. Digest *values* are
// trusted: a snapshot is provider-side state, and a wrong digest surfaces
// as a root mismatch at client verification, never as unsoundness. The
// slabs are retained, not copied.
func Rehydrate(alg digest.Alg, fanout int, levels [][]byte) (*Tree, error) {
	if len(levels) == 0 {
		return nil, errors.New("mht: no levels")
	}
	if _, err := checkShape(alg, fanout, levels[0]); err != nil {
		return nil, err
	}
	size := alg.Size()
	for l, lvl := range levels {
		width, last := len(lvl)/size, l == len(levels)-1
		switch {
		case last && width != 1:
			return nil, fmt.Errorf("mht: top level has %d digests, want 1", width)
		case !last && width == 1:
			return nil, fmt.Errorf("mht: level %d is a premature root", l)
		case !last:
			if want := groupLevel(width, fanout).groups; len(levels[l+1]) != want*size {
				return nil, fmt.Errorf("mht: level %d has %d bytes, want %d digests under fanout %d",
					l+1, len(levels[l+1]), want, fanout)
			}
		}
	}
	return &Tree{alg: alg, fanout: fanout, size: size, levels: levels}, nil
}

// AuditLevels re-derives every interior level from the level below it and
// compares it against the stored slab — the verification Rehydrate
// deliberately skips at load time. A pass means the stored interior digests
// are exactly the fold of the stored leaves, so under collision resistance
// a root match against an externally trusted value extends that trust down
// to every leaf digest, without re-hashing a single leaf message. Cost is
// one hash per interior node (≈ n/(fanout-1) hashes), fanned out across
// GOMAXPROCS workers like Build, into one scratch slab the size of level 1;
// a level is compared whole, and only a mismatch is searched for its index.
func (t *Tree) AuditLevels() error {
	if len(t.levels) == 1 {
		return nil
	}
	size := t.size
	scratch := make([]byte, len(t.levels[1]))
	for l := 0; l+1 < len(t.levels); l++ {
		cur, stored := t.levels[l], t.levels[l+1]
		grp := groupLevel(t.width(l), t.fanout)
		next := scratch[:len(stored)]
		par.Chunks(grp.groups, 0, func(lo, hi int) { hashGroups(t.alg, cur, grp, next, lo, hi) })
		if bytes.Equal(next, stored) {
			continue
		}
		for i := 0; ; i++ {
			if !bytes.Equal(next[i*size:(i+1)*size], stored[i*size:(i+1)*size]) {
				return fmt.Errorf("mht: stored digest (%d,%d) does not fold from level %d", l+1, i, l)
			}
		}
	}
	return nil
}

// Root returns the root digest. Like Leaf and every proof entry, it aliases
// the tree's slab.
func (t *Tree) Root() []byte { return t.levels[len(t.levels)-1][:t.size:t.size] }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return t.width(0) }

// width returns the number of digests on level l.
func (t *Tree) width(l int) int { return len(t.levels[l]) / t.size }

// Fanout returns the tree fanout.
func (t *Tree) Fanout() int { return t.fanout }

// Alg returns the tree's hash algorithm.
func (t *Tree) Alg() digest.Alg { return t.alg }

// Height returns the number of levels including leaves.
func (t *Tree) Height() int { return len(t.levels) }

// Leaf returns the digest of leaf i, aliasing the leaf slab.
func (t *Tree) Leaf(i int) []byte { return t.digest(0, i) }

// digest returns digest i of level l, capped so an append cannot run into
// its neighbour.
func (t *Tree) digest(l, i int) []byte {
	return t.levels[l][i*t.size : (i+1)*t.size : (i+1)*t.size]
}

// Entry is one hash entry of an integrity proof: the digest at (Level,
// Index) in the tree, where Level 0 is the leaf level.
type Entry struct {
	Level  uint8
	Index  uint32
	Digest []byte
}

// Proof is the integrity proof ΓT for a set of leaves: the minimal set of
// subtree digests that, combined with the proven leaves, reconstructs the
// root. NumLeaves and Fanout are unsigned shape hints: a lie that moves a
// touched group yields a root mismatch, any other folds to the same root.
type Proof struct {
	Alg       digest.Alg
	Fanout    uint16
	NumLeaves uint32
	Entries   []Entry
}

// ProveScratch is the reusable working set of ProveWith and
// Top.ProveWith: the touched positions of the level being emitted,
// O(proven leaves) whatever the tree, and for a Top the subtrees it
// regenerates. A zero value is ready to use. Not safe for concurrent use.
type ProveScratch struct {
	pos   []int
	subs  []subtree // a Top's regenerated groups, ascending
	arena []byte    // their digests, each group's levels in turn
}

// Indices returns a length-n buffer backed by the scratch, for callers that
// compute leaf indices themselves: fill it and hand it to ProveWith, which
// then copies nothing.
func (s *ProveScratch) Indices(n int) []int {
	s.pos = slices.Grow(s.pos[:0], n)[:n]
	return s.pos
}

// leafSet copies indices into the scratch (a self-copy when they came
// from Indices), checks each against the leaf count n and returns them
// ascending and without duplicates — sorted only if they were not already.
func (s *ProveScratch) leafSet(indices []int, n int) ([]int, error) {
	if len(indices) == 0 {
		return nil, errors.New("mht: empty index set")
	}
	pos := append(s.pos[:0], indices...)
	s.pos = pos
	ascending := true
	for i, idx := range pos {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("mht: leaf index %d out of range [0, %d)", idx, n)
		}
		if i > 0 && idx < pos[i-1] {
			ascending = false
		}
	}
	if !ascending {
		slices.Sort(pos)
	}
	return slices.Compact(pos), nil
}

// Prove builds the proof for the given in-range leaf indices (any order,
// duplicates tolerated), applying the paper's two conditions to select
// entries.
func (t *Tree) Prove(indices []int) (*Proof, error) {
	var s ProveScratch
	return t.ProveWith(&s, indices)
}

// ProveWith is Prove with caller-provided scratch, for query hot paths:
// nothing but the returned Proof is allocated. The proof is a sorted fold,
// one proveLevel per level, and entries come out in (level, index) order.
// Only the leaf indices are ever sorted, and not even those when the
// caller hands them over in order.
func (t *Tree) ProveWith(s *ProveScratch, indices []int) (*Proof, error) {
	pos, err := s.leafSet(indices, t.NumLeaves())
	if err != nil {
		return nil, err
	}
	p := newProof(t.alg, t.fanout, t.NumLeaves(), len(t.levels), len(pos))
	for l := 0; l+1 < len(t.levels); l++ {
		pos = proveLevel(p, groupLevel(t.width(l), t.fanout), l, pos, func(c int) []byte { return t.digest(l, c) })
	}
	return p, nil
}

// newProof starts the proof of k leaves of an n-leaf tree of the given
// height, its entries sized for one root path's worth plus room for a
// scattered set's extra siblings; append grows them in the rare case that
// is not enough.
func newProof(alg digest.Alg, fanout, n, height, k int) *Proof {
	return &Proof{
		Alg:       alg,
		Fanout:    uint16(fanout),
		NumLeaves: uint32(n),
		Entries:   make([]Entry, 0, (height-1)*(fanout-1)+k/4),
	}
}

// proveLevel emits level l's entries. The level's touched positions pos,
// ascending, are cut into parent groups (grp); every child of a touched
// group that is not itself touched is an entry — its subtree holds no
// proven leaf, its parent's does: the paper's two conditions — read
// through digest. It returns the touched parents, ascending (parents of
// ascending positions come out ascending), written over pos: group k is
// written after k+1 positions were read.
func proveLevel(p *Proof, grp grouping, l int, pos []int, digest func(c int) []byte) []int {
	parents := pos[:0]
	for i := 0; i < len(pos); {
		parent := grp.parentOf(pos[i])
		first, last := grp.childRange(parent)
		for c := first; c < last; c++ {
			if i < len(pos) && pos[i] == c {
				i++
				continue
			}
			p.Entries = append(p.Entries, Entry{Level: uint8(l), Index: uint32(c), Digest: digest(c)})
		}
		parents = append(parents, parent)
	}
	return parents
}

// ErrIncomplete reports that the proof and known leaves do not cover the
// tree, so the root cannot be reconstructed.
var ErrIncomplete = errors.New("mht: proof incomplete")

// Known is one digest the verifier vouches for itself: the hash of a
// message it holds, at leaf position Index.
type Known struct {
	Index  uint32
	Digest []byte
}

// Scratch is the reusable storage of Reconstruct. A zero value is ready; a
// scratch reused across proofs reaches zero steady-state allocations. Not
// safe for concurrent use.
type Scratch struct {
	cur, next []Known // computed digests of the level being folded / built
	arena     []byte  // backing of every computed digest
	buf       []byte  // one group's child digests, concatenated for hashing
	sorted    []Entry // re-sorted copy of out-of-order proof entries
}

// maxHeight bounds the level count of any tree a proof can describe:
// NumLeaves < 2³² and every level at least halves.
const maxHeight = 33

// Reconstruct computes the root digest from the verifier's own leaf digests
// and the proof entries, without access to the tree. See Scratch.Reconstruct.
func Reconstruct(p *Proof, known []Known) ([]byte, error) {
	var s Scratch
	return s.Reconstruct(p, known)
}

// Reconstruct folds the verifier's leaf digests and the proof entries to the
// root, level by level: each level's digests — those computed from the level
// below, merged by index with the proof entries of that level — are cut into
// the parent groups of the declared shape, and each group hashed once. Cost
// is one hash per touched internal node and nothing else.
//
// Every digest handed in must reach the root: a group with a child missing
// fails with ErrIncomplete even when an entry supplies the parent's digest,
// and an entry at a position the fold also computes must equal the computed
// value. (An entry may therefore never stand in for a subtree the verifier
// holds leaves of — those leaves would be left unauthenticated.) Two digests
// claimed for one position must agree byte for byte.
//
// known is sorted by Index in place. The returned root aliases s and is
// valid until its next use.
func (s *Scratch) Reconstruct(p *Proof, known []Known) ([]byte, error) {
	if !p.Alg.Valid() {
		return nil, fmt.Errorf("mht: invalid algorithm %d in proof", p.Alg)
	}
	fanout := int(p.Fanout)
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: invalid fanout %d in proof", fanout)
	}
	n := int(p.NumLeaves)
	if n <= 0 {
		return nil, errors.New("mht: invalid leaf count in proof")
	}
	size := p.Alg.Size()

	// Number of positions per level for the declared shape.
	var widths [maxHeight]int
	top := 0
	for w := n; ; w = groupLevel(w, fanout).groups {
		widths[top] = w
		if w == 1 {
			break
		}
		top++
	}

	byIndex := func(a, b Known) int { return cmp.Compare(a.Index, b.Index) }
	if !slices.IsSortedFunc(known, byIndex) {
		slices.SortStableFunc(known, byIndex)
	}
	for _, k := range known {
		if int(k.Index) >= n {
			return nil, fmt.Errorf("mht: known leaf %d out of range", k.Index)
		}
		if len(k.Digest) != size {
			return nil, fmt.Errorf("mht: known leaf %d digest size %d, want %d", k.Index, len(k.Digest), size)
		}
	}
	entries := p.Entries
	inOrder := true
	for i, e := range entries {
		if int(e.Level) > top || int(e.Index) >= widths[e.Level] {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) outside tree shape", e.Level, e.Index)
		}
		if len(e.Digest) != size {
			return nil, fmt.Errorf("mht: proof entry (%d,%d) digest size %d, want %d", e.Level, e.Index, len(e.Digest), size)
		}
		if i > 0 && entryOrder(entries[i-1], e) > 0 {
			inOrder = false
		}
	}
	if !inOrder {
		// Provers emit entries in (level, index) order; tolerate any other
		// order at the price of a copy.
		s.sorted = append(s.sorted[:0], entries...)
		slices.SortStableFunc(s.sorted, entryOrder)
		entries = s.sorted
	}

	// A fold over k claims computes about k digests (exactly k-1 when every
	// group holds two or more); size for that once instead of by doubling.
	if k := len(known) + len(entries); cap(s.next) < k {
		s.cur, s.next = make([]Known, 0, k), make([]Known, 0, k)
		s.arena = make([]byte, 0, k*size)
		s.buf = make([]byte, 0, fanout*size)
	}
	s.arena = s.arena[:0]
	cur := known
	for l := 0; ; l++ {
		lvl := entries
		for k, e := range entries {
			if int(e.Level) != l {
				lvl = entries[:k]
				break
			}
		}
		entries = entries[len(lvl):]
		// take pops every digest claimed for position c off the two sorted
		// heads, returning nil when there is none.
		i, j := 0, 0
		take := func(c uint32) ([]byte, error) {
			var d []byte
			for ; i < len(cur) && cur[i].Index == c; i++ {
				if d != nil && !bytes.Equal(d, cur[i].Digest) {
					return nil, fmt.Errorf("mht: conflicting digests at (%d,%d)", l, c)
				}
				d = cur[i].Digest
			}
			for ; j < len(lvl) && lvl[j].Index == c; j++ {
				if d != nil && !bytes.Equal(d, lvl[j].Digest) {
					return nil, fmt.Errorf("mht: conflicting digests at (%d,%d)", l, c)
				}
				d = lvl[j].Digest
			}
			return d, nil
		}
		if l == top {
			root, err := take(0)
			if err != nil {
				return nil, err
			}
			if root == nil {
				return nil, fmt.Errorf("%w: nothing reaches the root", ErrIncomplete)
			}
			return root, nil
		}
		grp := groupLevel(widths[l], fanout)
		next := s.next[:0]
		for i < len(cur) || j < len(lvl) {
			var head uint32
			switch {
			case j == len(lvl) || (i < len(cur) && cur[i].Index <= lvl[j].Index):
				head = cur[i].Index
			default:
				head = lvl[j].Index
			}
			parent := grp.parentOf(int(head))
			first, last := grp.childRange(parent)
			s.buf = s.buf[:0]
			for c := first; c < last; c++ {
				d, err := take(uint32(c))
				if err != nil {
					return nil, err
				}
				if d == nil {
					return nil, fmt.Errorf("%w: missing (%d,%d)", ErrIncomplete, l, c)
				}
				s.buf = append(s.buf, d...)
			}
			s.arena = p.Alg.AppendSum(s.arena, s.buf)
			next = append(next, Known{Index: uint32(parent), Digest: s.arena[len(s.arena)-size:]})
		}
		// The level just folded is dead; its buffer (ours from level 1 up —
		// level 0 reads the caller's slice) takes the level after next.
		s.next, s.cur = s.cur[:0], next
		cur = next
	}
}

// entryOrder is the (level, index) order provers emit entries in.
func entryOrder(a, b Entry) int {
	if c := cmp.Compare(a.Level, b.Level); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// EncodedSize returns the byte size of the serialized proof: this is the
// ΓT contribution to communication overhead.
func (p *Proof) EncodedSize() int {
	return 1 + 2 + 4 + 4 + len(p.Entries)*(1+4+p.Alg.Size())
}

// NumEntries returns the number of hash items in the proof (the paper's
// "number of items in ΓT").
func (p *Proof) NumEntries() int { return len(p.Entries) }

// AppendBinary serializes the proof:
//
//	alg uint8 | fanout uint16 | numLeaves uint32 | numEntries uint32 |
//	entries × (level uint8, index uint32, digest)
func (p *Proof) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(p.Alg))
	buf = binary.BigEndian.AppendUint16(buf, p.Fanout)
	buf = binary.BigEndian.AppendUint32(buf, p.NumLeaves)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Entries)))
	for _, e := range p.Entries {
		buf = append(buf, e.Level)
		buf = binary.BigEndian.AppendUint32(buf, e.Index)
		buf = append(buf, e.Digest...)
	}
	return buf
}

// DecodeProof parses a proof serialized by AppendBinary, returning the proof
// and the number of bytes consumed. Entry digests alias buf.
func DecodeProof(buf []byte) (*Proof, int, error) {
	const head = 1 + 2 + 4 + 4
	if len(buf) < head {
		return nil, 0, fmt.Errorf("mht: proof truncated (%d bytes)", len(buf))
	}
	p := &Proof{
		Alg:       digest.Alg(buf[0]),
		Fanout:    binary.BigEndian.Uint16(buf[1:]),
		NumLeaves: binary.BigEndian.Uint32(buf[3:]),
	}
	if !p.Alg.Valid() {
		return nil, 0, fmt.Errorf("mht: bad algorithm %d", p.Alg)
	}
	count := int(binary.BigEndian.Uint32(buf[7:]))
	size := p.Alg.Size()
	need := head + count*(1+4+size)
	if count < 0 || len(buf) < need {
		return nil, 0, fmt.Errorf("mht: proof entries truncated (want %d bytes, have %d)", need, len(buf))
	}
	off := head
	p.Entries = make([]Entry, count)
	for i := 0; i < count; i++ {
		p.Entries[i] = Entry{
			Level:  buf[off],
			Index:  binary.BigEndian.Uint32(buf[off+1:]),
			Digest: buf[off+5 : off+5+size : off+5+size],
		}
		off += 5 + size
	}
	return p, off, nil
}
