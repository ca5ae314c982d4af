package mht

import (
	"errors"
	"fmt"

	"github.com/authhints/spv/internal/digest"
)

// TreeScratch holds reusable storage for BuildInto: per-level node slices
// and one digest arena. A zero value is ready; reusing one scratch across
// builds of same-shaped trees reaches zero steady-state allocations. Not
// safe for concurrent use.
type TreeScratch struct {
	bufs  [][][]byte // bufs[k] backs tree level k+1
	arena []byte
	tree  Tree
}

// BuildInto is Build with caller-provided scratch for transient trees (the
// FULL method's per-query row trees). The returned tree aliases both the
// scratch and the leaves slice: it is valid only until the next BuildInto
// on s, and any digest taken from it (proof entries included) must be
// copied before s is reused. Digests are byte-identical to Build's.
func BuildInto(s *TreeScratch, alg digest.Alg, fanout int, leaves [][]byte) (*Tree, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("mht: invalid hash algorithm %d", alg)
	}
	if fanout < 2 || fanout > MaxFanout {
		return nil, fmt.Errorf("mht: fanout %d out of range [2, %d]", fanout, MaxFanout)
	}
	if len(leaves) == 0 {
		return nil, errors.New("mht: no leaves")
	}
	size := alg.Size()
	for i, l := range leaves {
		if len(l) != size {
			return nil, fmt.Errorf("mht: leaf %d has %d bytes, want %d", i, len(l), size)
		}
	}
	s.arena = s.arena[:0]
	levels := s.tree.levels[:0]
	levels = append(levels, leaves)
	h := alg.New()
	cur := leaves
	for li := 0; len(cur) > 1; li++ {
		grp := groupLevel(len(cur), fanout)
		if li == len(s.bufs) {
			s.bufs = append(s.bufs, make([][]byte, 0, grp.groups))
		}
		next := s.bufs[li][:0]
		for p := 0; p < grp.groups; p++ {
			first, last := grp.childRange(p)
			h.Reset()
			for _, child := range cur[first:last] {
				h.Write(child)
			}
			s.arena = h.Sum(s.arena)
			next = append(next, s.arena[len(s.arena)-size:])
		}
		s.bufs[li] = next
		levels = append(levels, next)
		cur = next
	}
	s.tree = Tree{alg: alg, fanout: fanout, levels: levels}
	return &s.tree, nil
}
