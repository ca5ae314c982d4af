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
	"sort"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/par"
)

// MaxFanout bounds the tree fanout; the paper evaluates 2..32.
const MaxFanout = 256

// Tree is an immutable Merkle hash tree. levels[0] holds the leaf digests;
// levels[len-1] holds the single root digest. Each internal digest is
// H(child_0 ◦ ... ◦ child_{k-1}) over its (up to fanout) children.
//
// Children are grouped B⁺-tree style: a level of w nodes forms ⌈w/f⌉ groups
// with sizes as equal as possible, so no group is less than half full. This
// matches the paper's Figure 3, where four level-2 entries under fanout 3
// split into two groups of two (padded with ⊥ in the figure), not 3+1.
type Tree struct {
	alg    digest.Alg
	fanout int
	levels [][][]byte
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

// Build constructs a tree over the given leaf digests. The leaf slice is
// retained (not copied); callers must not mutate it afterwards.
func Build(alg digest.Alg, fanout int, leaves [][]byte) (*Tree, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	}
	if len(leaves) == 0 {
		return nil, errors.New("mht: no leaves")
	}
	for i, l := range leaves {
		if len(l) != alg.Size() {
			return nil, fmt.Errorf("mht: leaf %d has %d bytes, want %d", i, len(l), alg.Size())
		}
	}
	t := &Tree{alg: alg, fanout: fanout}
	t.levels = append(t.levels, leaves)
	for len(t.levels[len(t.levels)-1]) > 1 {
		cur := t.levels[len(t.levels)-1]
		grp := groupLevel(len(cur), fanout)
		next := make([][]byte, grp.groups)
		hashLevel(alg, cur, grp, next)
		t.levels = append(t.levels, next)
	}
	return t, nil
}

// hashLevel computes one level of parent digests, fanning wide levels out
// across GOMAXPROCS workers (each parent digest depends only on its own
// child range).
func hashLevel(alg digest.Alg, cur [][]byte, grp grouping, next [][]byte) {
	par.Chunks(grp.groups, 0, func(lo, hi int) {
		hashGroups(alg, cur, grp, next, lo, hi)
	})
}

// hashGroups hashes parents [lo, hi), reusing one hasher across the range.
func hashGroups(alg digest.Alg, cur [][]byte, grp grouping, next [][]byte, lo, hi int) {
	h := alg.New()
	for p := lo; p < hi; p++ {
		first, last := grp.childRange(p)
		h.Reset()
		for _, child := range cur[first:last] {
			h.Write(child)
		}
		next[p] = h.Sum(nil)
	}
}

// BuildFromMessages hashes each message and builds the tree over the
// digests. Message hashing is fanned out like level hashing: it dominates
// owner outsourcing of large networks.
func BuildFromMessages(alg digest.Alg, fanout int, msgs [][]byte) (*Tree, error) {
	leaves := make([][]byte, len(msgs))
	HashMessages(alg, msgs, leaves)
	return Build(alg, fanout, leaves)
}

// HashMessages fills digests[i] with the hash of msgs[i], in parallel for
// large inputs. len(digests) must equal len(msgs).
func HashMessages(alg digest.Alg, msgs [][]byte, digests [][]byte) {
	par.Chunks(len(msgs), 0, func(lo, hi int) {
		hashMessageRange(alg, msgs, digests, lo, hi)
	})
}

func hashMessageRange(alg digest.Alg, msgs, digests [][]byte, lo, hi int) {
	h := alg.New()
	for i := lo; i < hi; i++ {
		h.Reset()
		h.Write(msgs[i])
		digests[i] = h.Sum(nil)
	}
}

// UpdateLeaves returns a new tree in which leaf i carries digest d for
// every (i, d) in dirty, rehashing only the O(k·log n) internal digests on
// the dirty leaves' root paths. The receiver is left untouched and remains
// fully usable — clean digests are shared between the two trees, so
// concurrent readers of the old tree (in-flight proof constructions) never
// observe the patch. The result is byte-identical to Build over the patched
// leaf slice.
func (t *Tree) UpdateLeaves(dirty map[int][]byte) (*Tree, error) {
	if len(dirty) == 0 {
		return t, nil
	}
	n := t.NumLeaves()
	for i, d := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("mht: dirty leaf %d out of range [0, %d)", i, n)
		}
		if len(d) != t.alg.Size() {
			return nil, fmt.Errorf("mht: dirty leaf %d digest has %d bytes, want %d", i, len(d), t.alg.Size())
		}
	}
	nt := &Tree{alg: t.alg, fanout: t.fanout, levels: make([][][]byte, len(t.levels))}
	// Copy the outer slice of each level (pointer copies only) so digests
	// can be replaced without touching the shared backing arrays.
	for l, lvl := range t.levels {
		nt.levels[l] = append([][]byte(nil), lvl...)
	}
	// Dirty positions at the current level, ascending and deduplicated.
	pos := make([]int, 0, len(dirty))
	for i, d := range dirty {
		nt.levels[0][i] = d
		pos = append(pos, i)
	}
	sort.Ints(pos)
	h := t.alg.New()
	for l := 0; l+1 < len(nt.levels); l++ {
		grp := groupLevel(len(nt.levels[l]), t.fanout)
		parents := pos[:0]
		for _, p := range pos {
			pp := grp.parentOf(p)
			if len(parents) > 0 && parents[len(parents)-1] == pp {
				continue // ascending children share ascending parents
			}
			parents = append(parents, pp)
		}
		for _, p := range parents {
			first, last := grp.childRange(p)
			h.Reset()
			for _, child := range nt.levels[l][first:last] {
				h.Write(child)
			}
			nt.levels[l+1][p] = h.Sum(nil)
		}
		pos = parents
	}
	return nt, nil
}

// Levels exposes the tree's digest levels — levels[0] the leaves,
// levels[len-1] the single root — for snapshot serialization (the
// dehydration half of the persistence hooks; Rehydrate is the other). The
// returned slices are the tree's own storage: callers must treat them as
// read-only and must not retain them across a tree mutation.
func (t *Tree) Levels() [][][]byte { return t.levels }

// Rehydrate reconstructs a Tree from previously exported levels without
// recomputing a single hash — the snapshot load path, where interior
// digests were already paid for at outsourcing time. The level shape is
// validated exactly (widths must follow the B⁺-style grouping chain and
// every digest must be alg-sized), but digest *values* are trusted: a
// snapshot is provider-side state, and a wrong digest surfaces as a root
// mismatch at client verification, never as unsoundness. The levels slice
// is retained, not copied.
func Rehydrate(alg digest.Alg, fanout int, levels [][][]byte) (*Tree, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	}
	if len(levels) == 0 || len(levels[0]) == 0 {
		return nil, errors.New("mht: no levels")
	}
	size := alg.Size()
	for l, lvl := range levels {
		for i, d := range lvl {
			if len(d) != size {
				return nil, fmt.Errorf("mht: level %d digest %d has %d bytes, want %d", l, i, len(d), size)
			}
		}
		last := l == len(levels)-1
		switch {
		case last && len(lvl) != 1:
			return nil, fmt.Errorf("mht: top level has %d digests, want 1", len(lvl))
		case !last:
			want := groupLevel(len(lvl), fanout).groups
			if len(levels[l+1]) != want {
				return nil, fmt.Errorf("mht: level %d has %d digests, want %d under fanout %d",
					l+1, len(levels[l+1]), want, fanout)
			}
			if len(lvl) == 1 {
				return nil, fmt.Errorf("mht: level %d is a premature root", l)
			}
		}
	}
	return &Tree{alg: alg, fanout: fanout, levels: levels}, nil
}

// AuditLevels re-derives every interior level from the level below it and
// compares the result digest-by-digest against the stored levels — the
// verification Rehydrate deliberately skips at load time. A pass means the
// stored interior digests are exactly the fold of the stored leaves, so
// under collision resistance a root match against an externally trusted
// value extends that trust down to every leaf digest, without re-hashing a
// single leaf message. Cost is one hash per interior node (≈ n/(fanout-1)
// hashes), fanned out across GOMAXPROCS workers like Build.
func (t *Tree) AuditLevels() error {
	for l := 0; l+1 < len(t.levels); l++ {
		cur := t.levels[l]
		grp := groupLevel(len(cur), t.fanout)
		next := make([][]byte, grp.groups)
		hashLevel(t.alg, cur, grp, next)
		stored := t.levels[l+1]
		for i := range next {
			if !bytes.Equal(next[i], stored[i]) {
				return fmt.Errorf("mht: stored digest (%d,%d) does not fold from level %d", l+1, i, l)
			}
		}
	}
	return nil
}

// Root returns the root digest.
func (t *Tree) Root() []byte { return t.levels[len(t.levels)-1][0] }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.levels[0]) }

// Fanout returns the tree fanout.
func (t *Tree) Fanout() int { return t.fanout }

// Alg returns the tree's hash algorithm.
func (t *Tree) Alg() digest.Alg { return t.alg }

// Height returns the number of levels including leaves.
func (t *Tree) Height() int { return len(t.levels) }

// Leaf returns the digest of leaf i.
func (t *Tree) Leaf(i int) []byte { return t.levels[0][i] }

// Entry is one hash entry of an integrity proof: the digest at (Level,
// Index) in the tree, where Level 0 is the leaf level.
type Entry struct {
	Level  uint8
	Index  uint32
	Digest []byte
}

// Proof is the integrity proof ΓT for a set of leaves: the minimal set of
// subtree digests that, combined with the proven leaves, reconstructs the
// root. NumLeaves and Fanout describe the tree shape the verifier must
// assume; lying about either simply yields a root mismatch.
type Proof struct {
	Alg       digest.Alg
	Fanout    uint16
	NumLeaves uint32
	Entries   []Entry
}

// ProveScratch is reusable coverage state for ProveWith. A zero value is
// ready to use; a scratch reused across proofs (the provider steady state)
// stops allocating once it has seen its largest tree. Not safe for
// concurrent use.
type ProveScratch struct {
	epoch   uint8
	stamp   [][]uint8  // per level: stamp[l][i]==epoch ⇒ subtree (l,i) holds a proven leaf
	covered [][]uint32 // per level: positions stamped this epoch, in marking order
}

// reset sizes the scratch for t's shape and invalidates prior coverage in
// O(levels) via the epoch stamp. Storage only ever grows, so a scratch
// shared between trees of different shapes settles at the largest. A stamp
// is one byte — a pooled scratch is resident for the life of the process,
// a quarter the size it would be with word stamps — at the price of one
// clear every 255 proofs (a memclr of a byte per tree position, amortized
// to nothing).
func (s *ProveScratch) reset(t *Tree) {
	for len(s.stamp) < len(t.levels) {
		s.stamp = append(s.stamp, nil)
		s.covered = append(s.covered, nil)
	}
	for l, lvl := range t.levels {
		if len(s.stamp[l]) < len(lvl) {
			s.stamp[l] = make([]uint8, len(lvl))
		}
		s.covered[l] = s.covered[l][:0]
	}
	s.epoch++
	if s.epoch == 0 {
		for l := range s.stamp {
			clear(s.stamp[l])
		}
		s.epoch = 1
	}
}

// Prove builds the proof for the given in-range leaf indices (duplicates
// tolerated), applying the paper's two conditions to select entries.
func (t *Tree) Prove(indices []int) (*Proof, error) {
	var s ProveScratch
	return t.ProveWith(&s, indices)
}

// ProveWith is Prove with caller-provided scratch, for query hot paths that
// build many proofs against one tree: coverage marking is O(touched), not
// O(tree), and nothing but the returned Proof is allocated.
func (t *Tree) ProveWith(s *ProveScratch, indices []int) (*Proof, error) {
	if len(indices) == 0 {
		return nil, errors.New("mht: empty index set")
	}
	s.reset(t)
	for _, idx := range indices {
		if idx < 0 || idx >= t.NumLeaves() {
			return nil, fmt.Errorf("mht: leaf index %d out of range [0, %d)", idx, t.NumLeaves())
		}
		pos := idx
		for l := 0; l < len(t.levels); l++ {
			if s.stamp[l][pos] == s.epoch {
				break
			}
			s.stamp[l][pos] = s.epoch
			s.covered[l] = append(s.covered[l], uint32(pos))
			if l+1 < len(t.levels) {
				pos = groupLevel(len(t.levels[l]), t.fanout).parentOf(pos)
			}
		}
	}
	p := &Proof{
		Alg:       t.alg,
		Fanout:    uint16(t.fanout),
		NumLeaves: uint32(t.NumLeaves()),
	}
	// An entry is emitted when its subtree is unproven but its parent's is
	// proven (condition (ii) ⇔ the entry's parent is covered): exactly the
	// uncovered children of covered parents. Walking covered parents in
	// ascending index order yields entries already sorted by (level, index),
	// since child ranges are monotone in the parent index.
	for l := 0; l < len(t.levels)-1; l++ {
		parents := s.covered[l+1]
		slices.Sort(parents)
		grp := groupLevel(len(t.levels[l]), t.fanout)
		for _, par := range parents {
			first, last := grp.childRange(int(par))
			for c := first; c < last; c++ {
				if s.stamp[l][c] == s.epoch {
					continue
				}
				p.Entries = append(p.Entries, Entry{Level: uint8(l), Index: uint32(c), Digest: t.levels[l][c]})
			}
		}
	}
	return p, nil
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
