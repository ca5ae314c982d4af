package mht

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/digest"
)

// refLevels is the slow obviously-correct tree: one digest object per node,
// one streaming hasher, every level a slice of slices — the layout the slab
// replaced.
func refLevels(alg digest.Alg, fanout int, leaves []byte) [][][]byte {
	size := alg.Size()
	cur := make([][]byte, len(leaves)/size)
	for i := range cur {
		cur[i] = leaves[i*size : (i+1)*size]
	}
	levels := [][][]byte{cur}
	for len(cur) > 1 {
		grp := groupLevel(len(cur), fanout)
		next := make([][]byte, grp.groups)
		for p := range next {
			first, last := grp.childRange(p)
			h := alg.New()
			for _, child := range cur[first:last] {
				h.Write(child)
			}
			next[p] = h.Sum(nil)
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// refProve selects entries by the paper's two conditions read literally:
// mark every subtree that holds a proven leaf, then an entry is a node whose
// subtree is unmarked while its parent's is marked.
func refProve(t *Tree, indices []int) []Entry {
	marked := make([]map[int]bool, t.Height())
	for l := range marked {
		marked[l] = map[int]bool{}
	}
	for _, idx := range indices {
		for l := 0; l < t.Height(); l++ {
			marked[l][idx] = true
			if l+1 < t.Height() {
				idx = groupLevel(t.width(l), t.fanout).parentOf(idx)
			}
		}
	}
	var out []Entry
	for l := 0; l+1 < t.Height(); l++ {
		grp := groupLevel(t.width(l), t.fanout)
		for i := 0; i < t.width(l); i++ {
			if !marked[l][i] && marked[l+1][grp.parentOf(i)] {
				out = append(out, Entry{Level: uint8(l), Index: uint32(i), Digest: t.digest(l, i)})
			}
		}
	}
	return out
}

// TestSlabBuildMatchesReference: the slab tree is the per-digest tree, level
// for level and byte for byte, and BuildInto's scratch-backed tree is the
// same tree again.
func TestSlabBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var ts TreeScratch
	for _, fanout := range []int{2, 3, 16, 256} {
		sizes := []int{1, 2, fanout, fanout + 1, 5000}
		for k := 0; k < 8; k++ {
			sizes = append(sizes, 1+rng.Intn(5000))
		}
		for _, n := range sizes {
			leaves := randomLeaves(rng, n)
			want := refLevels(digest.SHA1, fanout, leaves)
			tr, err := Build(digest.SHA1, fanout, leaves)
			if err != nil {
				t.Fatal(err)
			}
			into, err := BuildInto(&ts, digest.SHA1, fanout, leaves)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Height() != len(want) || into.Height() != len(want) {
				t.Fatalf("fanout=%d n=%d: heights %d and %d, want %d", fanout, n, tr.Height(), into.Height(), len(want))
			}
			for l, lvl := range want {
				flat := bytes.Join(lvl, nil)
				if !bytes.Equal(tr.levels[l], flat) || !bytes.Equal(into.levels[l], flat) {
					t.Fatalf("fanout=%d n=%d: level %d differs from the per-digest reference", fanout, n, l)
				}
			}
			if !bytes.Equal(tr.Root(), want[len(want)-1][0]) {
				t.Fatalf("fanout=%d n=%d: root differs", fanout, n)
			}
		}
	}
}

// TestProveFoldMatchesPaperConditions holds the sorted fold, entry for
// entry, to the paper's two conditions on index sets of every awkward
// shape — unsorted, with duplicates, a single leaf, every leaf — with one
// scratch carried across trees of different shapes.
func TestProveFoldMatchesPaperConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s ProveScratch
	for iter := 0; iter < 600; iter++ {
		n := 1 + rng.Intn(1200)
		fanout := []int{2, 3, 16, 256}[rng.Intn(4)]
		tr, err := Build(digest.SHA1, fanout, randomLeaves(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		var idx []int
		switch iter % 4 {
		case 0: // a single leaf
			idx = []int{rng.Intn(n)}
		case 1: // every leaf, shuffled
			idx = rng.Perm(n)
		case 2: // a scattered set with repeats, unsorted
			for k := 1 + rng.Intn(40); k > 0; k-- {
				idx = append(idx, rng.Intn(n))
			}
			idx = append(idx, idx[0], idx[len(idx)/2])
		case 3: // an ascending contiguous run
			lo := rng.Intn(n)
			for i := lo; i < min(n, lo+1+rng.Intn(64)); i++ {
				idx = append(idx, i)
			}
		}
		given := slices.Clone(idx)
		got, err := tr.ProveWith(&s, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idx, given) {
			t.Fatalf("iter %d: ProveWith reordered its caller's indices", iter)
		}
		want := refProve(tr, idx)
		if len(got.Entries) != len(want) {
			t.Fatalf("iter %d (n=%d fanout=%d, %d indices): %d entries, want %d", iter, n, fanout, len(idx), len(got.Entries), len(want))
		}
		for i, e := range got.Entries {
			if e.Level != want[i].Level || e.Index != want[i].Index || !bytes.Equal(e.Digest, want[i].Digest) {
				t.Fatalf("iter %d (n=%d fanout=%d): entry %d is (%d,%d), want (%d,%d)", iter, n, fanout, i, e.Level, e.Index, want[i].Level, want[i].Index)
			}
		}
		// The caller-filled form of the scratch buffer gives the same proof.
		own := s.Indices(len(given))
		copy(own, given)
		again, err := tr.ProveWith(&s, own)
		if err != nil || !bytes.Equal(again.AppendBinary(nil), got.AppendBinary(nil)) {
			t.Fatalf("iter %d: proof from scratch-owned indices differs (%v)", iter, err)
		}
	}
}

// TestRehydrateValidatesSlabs: the O(levels) shape check accepts exactly
// what Build produces and names what is wrong with anything else.
func TestRehydrateValidatesSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := Build(digest.SHA1, 3, randomLeaves(rng, 100))
	if err != nil {
		t.Fatal(err)
	}
	clone := func() [][]byte {
		out := make([][]byte, len(tr.levels))
		for l, lvl := range tr.levels {
			out[l] = bytes.Clone(lvl)
		}
		return out
	}
	re, err := Rehydrate(digest.SHA1, 3, clone())
	if err != nil || !bytes.Equal(re.Root(), tr.Root()) || re.NumLeaves() != 100 {
		t.Fatalf("honest slabs rejected: %v", err)
	}
	size := digest.SHA1.Size()
	cases := []struct {
		name string
		edit func(lv [][]byte) [][]byte
		want string
	}{
		{"ragged leaf slab", func(lv [][]byte) [][]byte { lv[0] = lv[0][:len(lv[0])-1]; return lv }, "not a multiple"},
		{"ragged interior slab", func(lv [][]byte) [][]byte { lv[2] = append(lv[2], 0); return lv }, "level 2 has"},
		{"level one digest short", func(lv [][]byte) [][]byte { lv[1] = lv[1][size:]; return lv }, "level 1 has"},
		{"level three one digest long", func(lv [][]byte) [][]byte { lv[3] = append(lv[3], lv[3][:size]...); return lv }, "level 3 has"},
		{"premature root", func(lv [][]byte) [][]byte { return append(lv, lv[len(lv)-1]) }, "premature root"},
		{"no root", func(lv [][]byte) [][]byte { return lv[:len(lv)-1] }, "top level has"},
		{"no levels", func(lv [][]byte) [][]byte { return nil }, "no levels"},
		{"empty leaves", func(lv [][]byte) [][]byte { lv[0] = nil; return lv }, "no leaves"},
	}
	for _, tc := range cases {
		if _, err := Rehydrate(digest.SHA1, 3, tc.edit(clone())); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := Rehydrate(digest.SHA1, 1, clone()); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := Rehydrate(digest.Alg(9), 3, clone()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestAuditLevelsNamesTheFlippedLevel: one flipped bit anywhere in the tree
// is found, and the error names the stored digest that no longer folds — the
// flipped one, or for a flip on the level below, its parent.
func TestAuditLevelsNamesTheFlippedLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := Build(digest.SHA1, 2, randomLeaves(rng, 3000)) // wide enough for the parallel path
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AuditLevels(); err != nil {
		t.Fatalf("honest tree fails its audit: %v", err)
	}
	size := digest.SHA1.Size()
	for l := 0; l < tr.Height(); l++ {
		levels := make([][]byte, tr.Height())
		for k, lvl := range tr.levels {
			levels[k] = bytes.Clone(lvl)
		}
		bad, err := Rehydrate(digest.SHA1, 2, levels)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(bad.width(l))
		levels[l][i*size+rng.Intn(size)] ^= 0x10
		want := fmt.Sprintf("(%d,%d)", l, i)
		if l == 0 {
			want = fmt.Sprintf("(1,%d)", groupLevel(bad.width(0), 2).parentOf(i))
		}
		if err := bad.AuditLevels(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("flip at (%d,%d): got %v, want the audit to name %s", l, i, err, want)
		}
	}
}

// TestSlabAllocBudget: a tree costs its levels, not its digests — to build
// and to audit.
func TestSlabAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leaves := randomLeaves(rng, 20000)
	tr, err := Build(digest.SHA1, 2, leaves)
	if err != nil {
		t.Fatal(err)
	}
	levels := float64(tr.Height())
	// Wide levels fan out: a goroutine and its closure per worker per level.
	workers := float64(runtime.GOMAXPROCS(0))
	if n := testing.AllocsPerRun(5, func() {
		if _, err := Build(digest.SHA1, 2, leaves); err != nil {
			t.Fatal(err)
		}
	}); n > levels+4+2*levels*workers {
		t.Errorf("Build of %d levels allocates %v times", tr.Height(), n)
	}
	prev := runtime.GOMAXPROCS(1)
	n := testing.AllocsPerRun(5, func() {
		if _, err := Build(digest.SHA1, 2, leaves); err != nil {
			t.Fatal(err)
		}
	})
	runtime.GOMAXPROCS(prev)
	if n > levels+4 {
		t.Errorf("serial Build of %d levels allocates %v times, want ≤ levels+4", tr.Height(), n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := tr.AuditLevels(); err != nil {
			t.Fatal(err)
		}
	}); n > 2*levels*workers {
		t.Errorf("AuditLevels of %d levels allocates %v times, want ≤ 2·levels·workers", tr.Height(), n)
	}
}

// The micro-benchmarks run on the shape of HYP's distance tree in the
// repository benchmark's world: 412,805 leaves, fanout 2, SHA-1.
const benchLeaves = 412805

func benchTree(b *testing.B) (*Tree, []byte) {
	b.Helper()
	leaves := randomLeaves(rand.New(rand.NewSource(1)), benchLeaves)
	tr, err := Build(digest.SHA1, 2, leaves)
	if err != nil {
		b.Fatal(err)
	}
	return tr, leaves
}

var benchSink any

func BenchmarkBuild(b *testing.B) {
	_, leaves := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Build(digest.SHA1, 2, leaves)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tr
	}
}

// BenchmarkProve proves 400 leaves in two runs, the shape of a HYP query's
// hyper-edge block.
func BenchmarkProve(b *testing.B) {
	tr, _ := benchTree(b)
	var s ProveScratch
	idx := make([]int, 0, 400)
	for i := 0; i < 200; i++ {
		idx = append(idx, 1000+i, 300000+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := tr.ProveWith(&s, idx)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkRehydrate is a snapshot load's share of the tree: one copy per
// level out of the section payload, then the shape check.
func BenchmarkRehydrate(b *testing.B) {
	tr, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels := make([][]byte, len(tr.levels))
		for l, lvl := range tr.levels {
			levels[l] = bytes.Clone(lvl)
		}
		re, err := Rehydrate(digest.SHA1, 2, levels)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = re
	}
}

// BenchmarkUpdateLeaves patches 4,461 leaves — what one edge update on the
// benchmark world dirties.
func BenchmarkUpdateLeaves(b *testing.B) {
	tr, _ := benchTree(b)
	rng := rand.New(rand.NewSource(2))
	dirty := make(map[int][]byte, 4461)
	for len(dirty) < 4461 {
		d := make([]byte, digest.SHA1.Size())
		rng.Read(d)
		dirty[rng.Intn(benchLeaves)] = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt, err := tr.UpdateLeaves(dirty)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = nt
	}
}
