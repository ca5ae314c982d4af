package mhttest

import (
	"slices"
	"testing"
)

// TestBlocksHaveTheirShape holds Indices to the shape each block names:
// its leaf count, consecutive leaves, that many ascending runs, and the
// groups of 16 it touches.
func TestBlocksHaveTheirShape(t *testing.T) {
	for _, blk := range Blocks {
		idx := blk.Indices()
		runs, groups := 1, map[int]bool{}
		for i, x := range idx {
			if i > 0 && x < idx[i-1] {
				runs++
			}
			groups[x/16] = true
		}
		sorted := slices.Clone(idx)
		slices.Sort(sorted)
		if len(idx) != blk.Leaves || sorted[0] != blk.First || sorted[len(sorted)-1] != blk.First+blk.Leaves-1 ||
			len(slices.Compact(sorted)) != blk.Leaves || runs != blk.Runs {
			t.Errorf("%s: %d leaves in %d runs, want %d consecutive from %d in %d runs", blk.Name, len(idx), runs, blk.Leaves, blk.First, blk.Runs)
		}
		t.Logf("%s: %d leaves in %d runs over %d groups of 16", blk.Name, len(idx), runs, len(groups))
	}
}
