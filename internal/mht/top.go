package mht

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/par"
)

// LeafFn appends the digests of leaves [lo, hi) to dst, in leaf order —
// exactly hi-lo of them — and returns the extended slice. It is where a
// Top regenerates the levels it does not store from; Top's whole-tree
// passes call it from several goroutines at once.
type LeafFn func(dst []byte, lo, hi int) []byte

// Top is a Merkle tree that stores only its upper levels: every level from
// the cut up, as a Tree whose leaves are the cut level's digests. The
// levels below are a function of the leaves, and the leaves of the caller's
// data, so a Top keeps neither: each operation regenerates the groups it
// needs — the subtree under one cut-level node — from a LeafFn, in the
// same B⁺-style shape Build gives the whole tree. The cut is the lowest
// level with at most ⌈n/g⌉ nodes, so a group holds about g leaves.
//
// Every root, level byte and proof byte is the one Build over the same
// leaves produces. A Top is immutable; it shares its shape with the
// versions UpdateLeaves derives from it.
type Top struct {
	alg    digest.Alg
	fanout int
	widths []int      // every level's width, leaves first, the root's 1 last
	grp    []grouping // the grouping of each level below the cut
	cut    int
	upper  *Tree // levels cut and above
}

// topCut returns the level a Top over an n-leaf tree under fanout stores
// from: the lowest level with at most ⌈n/g⌉ nodes (0 for parameters no
// tree has).
func topCut(n, fanout, g int) int {
	if n < 1 || fanout < 2 || fanout > MaxFanout || g < 1 {
		return 0
	}
	limit, l := (n+g-1)/g, 0
	for w := n; w > limit; w = groupLevel(w, fanout).groups {
		l++
	}
	return l
}

// newTop lays out the shape of an n-leaf Top; the parameters are valid.
func newTop(alg digest.Alg, fanout, n, g int) *Top {
	t := &Top{alg: alg, fanout: fanout, widths: []int{n}, cut: topCut(n, fanout, g)}
	for w := n; w > 1; {
		grp := groupLevel(w, fanout)
		if len(t.widths) <= t.cut {
			t.grp = append(t.grp, grp)
		}
		w = grp.groups
		t.widths = append(t.widths, w)
	}
	return t
}

// checkTop validates the parameters every Top constructor takes.
func checkTop(alg digest.Alg, fanout, n int) error {
	switch {
	case !alg.Valid():
		return fmt.Errorf("mht: invalid hash algorithm %d", alg)
	case fanout < 2 || fanout > MaxFanout:
		return fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	case n < 1:
		return errors.New("mht: no leaves")
	}
	return nil
}

// BuildTop builds the Top over n leaves of groups of about g, hashing
// every group from leaves, in parallel.
func BuildTop(alg digest.Alg, fanout, n, g int, leaves LeafFn) (*Top, error) {
	if err := checkTop(alg, fanout, n); err != nil {
		return nil, err
	}
	t := newTop(alg, fanout, n, g)
	var err error
	if t.upper, err = Build(alg, fanout, t.foldGroups(nil, leaves)); err != nil {
		return nil, err
	}
	return t, nil
}

// RehydrateTop reconstructs an n-leaf Top from its stored levels, cut and
// above, as one Tree (Stored) — the snapshot load path, which hashes
// nothing. upper must be exactly the tree over the cut level of an n-leaf
// tree under its fanout; digest values are trusted, as Rehydrate's are.
func RehydrateTop(n, g int, upper *Tree) (*Top, error) {
	if err := checkTop(upper.alg, upper.fanout, n); err != nil {
		return nil, err
	}
	t := newTop(upper.alg, upper.fanout, n, g)
	if upper.NumLeaves() != t.widths[t.cut] {
		return nil, fmt.Errorf("mht: stored level %d has %d digests, want %d", t.cut, upper.NumLeaves(), t.widths[t.cut])
	}
	t.upper = upper
	return t, nil
}

// Stored returns the levels the Top keeps, cut and above, as the Tree over
// the cut level's digests: what a snapshot writes and RehydrateTop takes
// back. Read-only.
func (t *Top) Stored() *Tree { return t.upper }

// Root returns the root digest, aliasing the stored top level.
func (t *Top) Root() []byte { return t.upper.Root() }

// NumLeaves returns the number of leaves.
func (t *Top) NumLeaves() int { return t.widths[0] }

// Alg returns the tree's hash algorithm.
func (t *Top) Alg() digest.Alg { return t.alg }

// Fanout returns the tree fanout.
func (t *Top) Fanout() int { return t.fanout }

// span is the subtree under one cut-level node: r[l] the index range of
// its descendants on level l (on the cut, the node itself).
type span [maxHeight][2]int

// group returns the cut-level ancestor of leaf i.
func (t *Top) group(i int) int {
	for _, grp := range t.grp {
		i = grp.parentOf(i)
	}
	return i
}

// span returns group g's subtree, from the childRange arithmetic of each
// level's grouping: a group's leaf count varies with where it sits.
func (t *Top) span(g int) (r span) {
	r[t.cut] = [2]int{g, g + 1}
	for l := t.cut; l > 0; l-- {
		first, _ := t.grp[l-1].childRange(r[l][0])
		_, last := t.grp[l-1].childRange(r[l][1] - 1)
		r[l-1] = [2]int{first, last}
	}
	return r
}

// levelOff returns the byte offset of level l within the digests fold
// appends for r: the levels below it come first.
func (t *Top) levelOff(r *span, l int) int {
	off := 0
	for m := 0; m < l; m++ {
		off += r[m][1] - r[m][0]
	}
	return off * t.alg.Size()
}

// fold appends the digests of levels 0..to of the subtree r to dst, level
// after level: the leaves from leaves, then each level hashed from the one
// before it, a parent's children one run of the level below.
func (t *Top) fold(dst []byte, r *span, to int, leaves LeafFn) []byte {
	size := t.alg.Size()
	start := len(dst)
	dst = slices.Grow(dst, t.levelOff(r, to+1))
	dst = leaves(dst, r[0][0], r[0][1])
	if got := len(dst) - start; got != (r[0][1]-r[0][0])*size {
		panic(fmt.Sprintf("mht: leaf function gave %d bytes for leaves [%d, %d)", got, r[0][0], r[0][1]))
	}
	for l, cur := 0, start; l < to; l++ {
		base := r[l][0]
		for p := r[l+1][0]; p < r[l+1][1]; p++ {
			first, last := t.grp[l].childRange(p)
			// dst has room for the whole fold, so the append writes past
			// the run it reads.
			dst = t.alg.AppendSum(dst, dst[cur+(first-base)*size:cur+(last-base)*size])
		}
		cur += (r[l][1] - base) * size
	}
	return dst
}

// groupThreshold is the group count below which a whole-tree pass runs
// inline.
const groupThreshold = 64

// foldGroups returns the cut-level digests of groups, in order (every
// group when groups is nil), each folded from its leaves, in parallel.
func (t *Top) foldGroups(groups []int, leaves LeafFn) []byte {
	k := len(groups)
	if groups == nil {
		k = t.widths[t.cut]
	}
	size := t.alg.Size()
	slab := make([]byte, k*size)
	par.Chunks(k, groupThreshold, func(lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			g := i
			if groups != nil {
				g = groups[i]
			}
			r := t.span(g)
			buf = t.fold(buf[:0], &r, t.cut, leaves)
			copy(slab[i*size:], buf[len(buf)-size:])
		}
	})
	return slab
}

// subtree is one group a Top.ProveWith regenerated: its span and where its
// digests start in the scratch arena.
type subtree struct {
	r   span
	off int
}

// ProveWith proves leaves of the Top as Tree.ProveWith proves them of the
// whole tree, byte for byte. Below the cut it regenerates only the groups
// that hold a sibling digest the proof needs — those with a proven leaf
// but not all of their leaves proven — into the scratch; above it, the
// stored levels supply the digests. The regenerated digests the proof
// carries are copied into one block of the proof's own, so it stays valid
// after the scratch is reused.
func (t *Top) ProveWith(s *ProveScratch, leaves LeafFn, indices []int) (*Proof, error) {
	pos, err := s.leafSet(indices, t.NumLeaves())
	if err != nil {
		return nil, err
	}
	s.subs, s.arena = s.subs[:0], s.arena[:0]
	for i := 0; i < len(pos); {
		r := t.span(t.group(pos[i]))
		j := i + 1
		for j < len(pos) && pos[j] < r[0][1] {
			j++
		}
		if j-i < r[0][1]-r[0][0] {
			s.subs = append(s.subs, subtree{r: r, off: len(s.arena)})
			s.arena = t.fold(s.arena, &r, t.cut-1, leaves)
		}
		i = j
	}
	size := t.alg.Size()
	p := newProof(t.alg, t.fanout, t.NumLeaves(), len(t.widths), len(pos))
	for l := 0; l < t.cut; l++ {
		k := 0 // the group holding the next lookup: both ascend
		pos = proveLevel(p, t.grp[l], l, pos, func(c int) []byte {
			for s.subs[k].r[l][1] <= c {
				k++
			}
			sub := &s.subs[k]
			at := sub.off + t.levelOff(&sub.r, l) + (c-sub.r[l][0])*size
			return s.arena[at : at+size : at+size]
		})
	}
	up := t.upper
	for l := 0; l+1 < len(up.levels); l++ {
		pos = proveLevel(p, groupLevel(up.width(l), t.fanout), t.cut+l, pos, func(c int) []byte { return up.digest(l, c) })
	}
	// The regenerated entries lead, in (level, index) order.
	lower := 0
	for lower < len(p.Entries) && int(p.Entries[lower].Level) < t.cut {
		lower++
	}
	if lower > 0 {
		block := make([]byte, 0, lower*size)
		for i := range p.Entries[:lower] {
			block = append(block, p.Entries[i].Digest...)
			p.Entries[i].Digest = block[len(block)-size : len(block) : len(block)]
		}
	}
	return p, nil
}

// UpdateLeaves returns the Top over leaves, which differ from the
// receiver's leaves at dirty (any order, duplicates tolerated) and nowhere
// else: the groups holding a dirty leaf are folded afresh and patched into
// a copy of the stored levels (Tree.UpdateLeaves), which rehashes their
// paths. The receiver stays valid for concurrent readers.
func (t *Top) UpdateLeaves(dirty []int, leaves LeafFn) (*Top, error) {
	if len(dirty) == 0 {
		return t, nil
	}
	groups := make([]int, len(dirty))
	for k, i := range dirty {
		if i < 0 || i >= t.NumLeaves() {
			return nil, fmt.Errorf("mht: dirty leaf %d out of range [0, %d)", i, t.NumLeaves())
		}
		groups[k] = t.group(i)
	}
	slices.Sort(groups)
	groups = slices.Compact(groups)
	slab := t.foldGroups(groups, leaves)
	size := t.alg.Size()
	patch := make(map[int][]byte, len(groups))
	for k, g := range groups {
		patch[g] = slab[k*size : (k+1)*size]
	}
	up, err := t.upper.UpdateLeaves(patch)
	if err != nil {
		return nil, err
	}
	nt := *t
	nt.upper = up
	return &nt, nil
}

// Audit re-derives the cut level from leaves, group by group, compares it
// whole to the stored one — searching for the group only on a mismatch —
// and folds the stored levels above it (AuditLevels). A pass means every
// stored digest is the fold of leaves, so a root match against an
// externally trusted value vouches for the leaves themselves. No level
// below the cut is ever held whole.
func (t *Top) Audit(leaves LeafFn) error {
	if cut := t.foldGroups(nil, leaves); !bytes.Equal(cut, t.upper.levels[0]) {
		size := t.alg.Size()
		for g := 0; ; g++ {
			if !bytes.Equal(cut[g*size:(g+1)*size], t.upper.digest(0, g)) {
				return fmt.Errorf("mht: stored digest (%d,%d) does not fold from its leaves", t.cut, g)
			}
		}
	}
	if err := t.upper.AuditLevels(); err != nil {
		return fmt.Errorf("mht: levels from %d: %w", t.cut, err)
	}
	return nil
}
