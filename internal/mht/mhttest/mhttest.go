// Package mhttest holds the Merkle micro-benchmarks' fixture: the shape of
// HYP's distance tree in the repository benchmark's world and the
// hyper-edge blocks a HYP proof proves on it. internal/mht benchmarks the
// plain tree on it and internal/mbt the stored-top tree, so both measure
// the same blocks.
package mhttest

// HYPLeaves is the leaf count of HYP's distance tree on that world:
// B(B+1)/2 for its 642 borders. The tree has fanout 2 and hashes with SHA-1.
const HYPLeaves = 206403

// A Block is a run layout of count consecutive leaves from First.
type Block struct {
	Name   string
	Leaves int
	Runs   int
	First  int
}

// Blocks are the hyper-edge blocks a HYP proof proves on that world,
// measured over 512 benchmark-range pairs: at the median 65 leaves handed
// over in one ascending run, at p90 210 leaves in 140 runs (a block listed
// source-cell major whose leaf order is target-cell major). Both start 8
// leaves into a 16-leaf group, so they touch 5 and 14 groups, as the
// measured blocks do.
var Blocks = []Block{
	{"p50", 65, 1, 100008},
	{"p90", 210, 140, 100008},
}

// Indices lays out the block's leaves in b.Runs ascending runs: the runs,
// longest first, are emitted last to first, so every run boundary
// descends.
func (b Block) Indices() []int {
	idx := make([]int, 0, b.Leaves)
	var starts []int
	for r, at := 0, b.First; r < b.Runs; r++ {
		starts = append(starts, at)
		at += b.Leaves / b.Runs
		if r < b.Leaves%b.Runs {
			at++
		}
	}
	for r := b.Runs - 1; r >= 0; r-- {
		end := b.First + b.Leaves
		if r+1 < b.Runs {
			end = starts[r+1]
		}
		for i := starts[r]; i < end; i++ {
			idx = append(idx, i)
		}
	}
	return idx
}
