package mht

import (
	"slices"

	"github.com/authhints/spv/internal/digest"
)

// TreeScratch holds reusable storage for BuildInto: one slab per interior
// level. A zero value is ready; reusing one scratch across builds of
// same-shaped trees reaches zero steady-state allocations. Not safe for
// concurrent use.
type TreeScratch struct {
	bufs [][]byte // bufs[k] backs tree level k+1
	tree Tree
}

// BuildInto is Build with caller-provided scratch for transient trees (the
// FULL method's per-query row trees), hashed on the calling goroutine. The
// returned tree aliases both the scratch and the leaf slab: it is valid
// only until the next BuildInto on s, and any digest taken from it (proof
// entries included) must be copied before s is reused. Digests are
// byte-identical to Build's.
func BuildInto(s *TreeScratch, alg digest.Alg, fanout int, leaves []byte) (*Tree, error) {
	if _, err := checkShape(alg, fanout, leaves); err != nil {
		return nil, err
	}
	size := alg.Size()
	levels := append(s.tree.levels[:0], leaves)
	for li, cur := 0, leaves; len(cur) > size; li++ {
		grp := groupLevel(len(cur)/size, fanout)
		if li == len(s.bufs) {
			s.bufs = append(s.bufs, nil)
		}
		next := slices.Grow(s.bufs[li][:0], grp.groups*size)[:grp.groups*size]
		hashGroups(alg, cur, grp, next, 0, grp.groups)
		s.bufs[li] = next
		levels = append(levels, next)
		cur = next
	}
	s.tree = Tree{alg: alg, fanout: fanout, size: size, levels: levels}
	return &s.tree, nil
}
