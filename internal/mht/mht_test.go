package mht

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/digest"
)

func msgs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("message-%04d", i))
	}
	return out
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(digest.SHA1, 2, nil); err == nil {
		t.Error("empty leaves accepted")
	}
	if _, err := Build(digest.SHA1, 1, digest.SHA1.Sum([]byte("x"))); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := Build(digest.SHA1, MaxFanout+1, digest.SHA1.Sum([]byte("x"))); err == nil {
		t.Error("huge fanout accepted")
	}
	if _, err := Build(digest.SHA1, 2, []byte{1, 2, 3}); err == nil {
		t.Error("ragged leaf slab accepted")
	}
	if _, err := Build(digest.Alg(99), 2, digest.SHA1.Sum([]byte("x"))); err == nil {
		t.Error("bad algorithm accepted")
	}
}

// leaves lists a position → digest map as Reconstruct's known-leaf slice,
// deliberately unsorted (map order): sorting is Reconstruct's job.
func leaves(m map[int][]byte) []Known {
	out := make([]Known, 0, len(m))
	for i, d := range m {
		out = append(out, Known{Index: uint32(i), Digest: d})
	}
	return out
}

func TestSingleLeafTree(t *testing.T) {
	leaf := digest.SHA1.Sum([]byte("only"))
	tr, err := Build(digest.SHA1, 4, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Root(), leaf) {
		t.Error("single-leaf root should be the leaf digest")
	}
	p, err := tr.Prove([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 {
		t.Errorf("single leaf proof has %d entries, want 0", len(p.Entries))
	}
	root, err := Reconstruct(p, leaves(map[int][]byte{0: leaf}))
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("reconstruct: %v", err)
	}
}

func TestPaperFigure3Example(t *testing.T) {
	// Figure 3b: 36 leaves, fanout 3, leaf groups h1..h12 of 3 leaves each
	// with h3 = (v31, v32, v33) and h4 = (v41, v42, v43). ΓS = {v32, v33,
	// v42} = leaves {7, 8, 10}. The paper's proof is ΓT = {H(Φ(v31)),
	// H(Φ(v41)), H(Φ(v43)), h1, h2, h5, h6, h18}: 3 leaf digests, 4 level-1
	// digests and 1 level-3 digest (h18) — level 2 contributes nothing
	// because h13, h14 are both reconstructible and grouped together.
	tr, err := BuildFromMessages(digest.SHA1, 3, msgs(36))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Prove([]int{7, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[uint8]int{}
	for _, e := range p.Entries {
		byLevel[e.Level]++
	}
	if byLevel[0] != 3 || byLevel[1] != 4 || byLevel[2] != 0 || byLevel[3] != 1 {
		t.Errorf("per-level entry counts = %v, want map[0:3 1:4 3:1]", byLevel)
	}
	if len(p.Entries) != 8 {
		t.Errorf("%d entries, want 8 (as in the paper's example)", len(p.Entries))
	}
	known := map[int][]byte{
		7:  digest.SHA1.Sum(msgs(36)[7]),
		8:  digest.SHA1.Sum(msgs(36)[8]),
		10: digest.SHA1.Sum(msgs(36)[10]),
	}
	root, err := Reconstruct(p, leaves(known))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, tr.Root()) {
		t.Error("reconstructed root mismatch")
	}
}

func TestProveReconstructAllFanouts(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 8, 16, 32} {
		for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
			tr, err := BuildFromMessages(digest.SHA1, fanout, msgs(n))
			if err != nil {
				t.Fatal(err)
			}
			// Prove a few different subsets.
			subsets := [][]int{{0}, {n - 1}, {0, n - 1}, {n / 2}}
			for _, s := range subsets {
				p, err := tr.Prove(s)
				if err != nil {
					t.Fatalf("fanout %d n %d: %v", fanout, n, err)
				}
				known := map[int][]byte{}
				for _, idx := range s {
					known[idx] = tr.Leaf(idx)
				}
				root, err := Reconstruct(p, leaves(known))
				if err != nil {
					t.Fatalf("fanout %d n %d subset %v: %v", fanout, n, s, err)
				}
				if !bytes.Equal(root, tr.Root()) {
					t.Fatalf("fanout %d n %d subset %v: root mismatch", fanout, n, s)
				}
			}
		}
	}
}

func TestProveRejectsBadIndices(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(8))
	if _, err := tr.Prove(nil); err == nil {
		t.Error("empty index set accepted")
	}
	if _, err := tr.Prove([]int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := tr.Prove([]int{8}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestProofPropertyRandomSubsets: for random trees and random leaf subsets,
// reconstruction succeeds with exactly the proven leaves and fails when any
// leaf digest is tampered with.
func TestProofPropertyRandomSubsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		fanout := 2 + rng.Intn(15)
		m := msgs(n)
		tr, err := BuildFromMessages(digest.SHA1, fanout, m)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(n)
		idxSet := map[int]bool{}
		for len(idxSet) < k {
			idxSet[rng.Intn(n)] = true
		}
		var indices []int
		for i := range idxSet {
			indices = append(indices, i)
		}
		p, err := tr.Prove(indices)
		if err != nil {
			return false
		}
		known := map[int][]byte{}
		for _, i := range indices {
			known[i] = digest.SHA1.Sum(m[i])
		}
		root, err := Reconstruct(p, leaves(known))
		if err != nil || !bytes.Equal(root, tr.Root()) {
			t.Logf("seed %d: reconstruct failed: %v", seed, err)
			return false
		}
		// Tamper with one proven leaf: root must change.
		victim := indices[rng.Intn(len(indices))]
		known[victim] = digest.SHA1.Sum([]byte("tampered"))
		root2, err := Reconstruct(p, leaves(known))
		if err == nil && bytes.Equal(root2, tr.Root()) {
			t.Logf("seed %d: tampered leaf reconstructed to same root", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestProofMissingLeafFails: dropping a proven leaf digest must make
// reconstruction fail with ErrIncomplete, not silently succeed. This is the
// defense against a provider that removes ΓS tuples and hides the removal.
func TestProofMissingLeafFails(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 3, msgs(30))
	p, err := tr.Prove([]int{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	known := map[int][]byte{
		4: tr.Leaf(4),
		6: tr.Leaf(6),
		// 5 missing
	}
	if _, err := Reconstruct(p, leaves(known)); err == nil {
		t.Fatal("reconstruction with missing leaf succeeded")
	}
}

func TestProofEntryTamperFails(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(64))
	p, _ := tr.Prove([]int{10})
	known := map[int][]byte{10: tr.Leaf(10)}
	p.Entries[0].Digest[0] ^= 0xff
	root, err := Reconstruct(p, leaves(known))
	if err == nil && bytes.Equal(root, tr.Root()) {
		t.Fatal("tampered proof entry still verified")
	}
}

func TestProofShapeLies(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(20))
	p, _ := tr.Prove([]int{3})
	known := map[int][]byte{3: tr.Leaf(3)}

	lie := *p
	lie.NumLeaves = 40
	if root, err := Reconstruct(&lie, leaves(known)); err == nil && bytes.Equal(root, tr.Root()) {
		t.Error("leaf-count lie produced matching root")
	}
	lie2 := *p
	lie2.Fanout = 4
	if root, err := Reconstruct(&lie2, leaves(known)); err == nil && bytes.Equal(root, tr.Root()) {
		t.Error("fanout lie produced matching root")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA256, 4, msgs(77))
	p, _ := tr.Prove([]int{0, 12, 76})
	enc := p.AppendBinary(nil)
	if len(enc) != p.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize %d", len(enc), p.EncodedSize())
	}
	dec, n, err := DecodeProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d, want %d", n, len(enc))
	}
	if dec.Alg != p.Alg || dec.Fanout != p.Fanout || dec.NumLeaves != p.NumLeaves || len(dec.Entries) != len(p.Entries) {
		t.Fatal("header round-trip mismatch")
	}
	for i := range dec.Entries {
		if dec.Entries[i].Level != p.Entries[i].Level ||
			dec.Entries[i].Index != p.Entries[i].Index ||
			!bytes.Equal(dec.Entries[i].Digest, p.Entries[i].Digest) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	known := map[int][]byte{0: tr.Leaf(0), 12: tr.Leaf(12), 76: tr.Leaf(76)}
	root, err := Reconstruct(dec, leaves(known))
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("decoded proof does not verify: %v", err)
	}
}

func TestDecodeProofTruncated(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(16))
	p, _ := tr.Prove([]int{5})
	enc := p.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut += 3 {
		if _, _, err := DecodeProof(enc[:cut]); err == nil {
			t.Errorf("truncated proof (%d bytes) decoded", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99 // unknown algorithm
	if _, _, err := DecodeProof(bad); err == nil {
		t.Error("unknown algorithm decoded")
	}
}

// TestProofMinimality: proof entries never overlap proven leaves' ancestor
// paths, and sibling sets are complete — i.e. the entry set is exactly the
// boundary. We verify the defining conditions rather than sizes.
func TestProofMinimality(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 3, msgs(81))
	indices := []int{0, 1, 40, 41, 80}
	p, _ := tr.Prove(indices)

	covered := map[[2]uint32]bool{}
	for _, idx := range indices {
		pos := idx
		for l := 0; l < tr.Height(); l++ {
			covered[[2]uint32{uint32(l), uint32(pos)}] = true
			if l+1 < tr.Height() {
				pos = groupLevel(len(tr.levels[l]), tr.Fanout()).parentOf(pos)
			}
		}
	}
	for _, e := range p.Entries {
		if covered[[2]uint32{uint32(e.Level), e.Index}] {
			t.Errorf("entry (%d,%d) overlaps a proven subtree", e.Level, e.Index)
		}
		grp := groupLevel(len(tr.levels[e.Level]), tr.Fanout())
		parent := [2]uint32{uint32(e.Level) + 1, uint32(grp.parentOf(int(e.Index)))}
		if !covered[parent] {
			t.Errorf("entry (%d,%d) has unproven parent: not minimal", e.Level, e.Index)
		}
	}
}

func TestFanoutAffectsProofSize(t *testing.T) {
	// Larger fanout ⇒ more sibling digests per level ⇒ larger proofs
	// (Fig 11a's mechanism). Verify monotonicity for a single leaf.
	m := msgs(4096)
	var prev int
	for i, fanout := range []int{2, 4, 8, 16, 32} {
		tr, _ := BuildFromMessages(digest.SHA1, fanout, m)
		p, _ := tr.Prove([]int{2048})
		size := p.EncodedSize()
		if i > 0 && size <= prev {
			t.Errorf("fanout %d proof size %d not larger than previous %d", fanout, size, prev)
		}
		prev = size
	}
}

func TestSHA256TreeWorks(t *testing.T) {
	tr, err := BuildFromMessages(digest.SHA256, 2, msgs(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root()) != 32 {
		t.Errorf("SHA-256 root has %d bytes", len(tr.Root()))
	}
	p, _ := tr.Prove([]int{7})
	root, err := Reconstruct(p, leaves(map[int][]byte{7: tr.Leaf(7)}))
	if err != nil || !bytes.Equal(root, tr.Root()) {
		t.Errorf("sha256 reconstruct failed: %v", err)
	}
}

// TestReconstructRejectsMaskingEntry: an entry may never stand in for a
// subtree the verifier holds leaves of. Otherwise a provider could ship a
// forged leaf message together with the true digest of one of its ancestors
// (the root itself, at the limit): the fold would reach the signed root
// without the forged leaf ever being hashed into it.
func TestReconstructRejectsMaskingEntry(t *testing.T) {
	for _, fanout := range []int{2, 3, 8} {
		tr, _ := BuildFromMessages(digest.SHA1, fanout, msgs(50))
		p, err := tr.Prove([]int{7, 20})
		if err != nil {
			t.Fatal(err)
		}
		forged := map[int][]byte{7: digest.SHA1.Sum([]byte("forged")), 20: tr.Leaf(20)}
		for l := 1; l < tr.Height(); l++ {
			// The true digest of leaf 7's ancestor at level l.
			idx := 7
			for k := 0; k < l; k++ {
				idx = groupLevel(tr.width(k), fanout).parentOf(idx)
			}
			masked := *p
			masked.Entries = append(append([]Entry(nil), p.Entries...),
				Entry{Level: uint8(l), Index: uint32(idx), Digest: tr.digest(l, idx)})
			root, err := Reconstruct(&masked, leaves(forged))
			if err == nil {
				t.Errorf("fanout %d: ancestor entry at level %d masked a forged leaf (root match: %v)",
					fanout, l, bytes.Equal(root, tr.Root()))
			}
		}
	}
}

// TestReconstructTolerantOfRedundancy: what carries no new claim is not an
// error — entries in any order, a byte-identical repeat of an entry or a
// leaf, an entry that agrees with the digest folded beneath it.
func TestReconstructTolerantOfRedundancy(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(37))
	p, _ := tr.Prove([]int{3, 4, 30})
	known := map[int][]byte{3: tr.Leaf(3), 4: tr.Leaf(4), 30: tr.Leaf(30)}
	want := tr.Root()
	check := func(name string, q *Proof, ks []Known) {
		t.Helper()
		root, err := Reconstruct(q, ks)
		if err != nil || !bytes.Equal(root, want) {
			t.Errorf("%s: root match %v, err %v", name, bytes.Equal(root, want), err)
		}
	}
	rev := *p
	rev.Entries = append([]Entry(nil), p.Entries...)
	slices.Reverse(rev.Entries)
	check("reversed entries", &rev, leaves(known))

	dup := *p
	dup.Entries = append(append([]Entry(nil), p.Entries...), p.Entries[0])
	check("repeated entry", &dup, leaves(known))
	check("repeated leaf", p, append(leaves(known), Known{Index: 30, Digest: tr.Leaf(30)}))

	agree := *p
	agree.Entries = append(append([]Entry(nil), p.Entries...), Entry{Level: uint8(tr.Height() - 1), Index: 0, Digest: want})
	check("entry equal to the computed root", &agree, leaves(known))

	// The same redundancy with a differing digest is a conflict.
	other := digest.SHA1.Sum([]byte("other"))
	if _, err := Reconstruct(p, append(leaves(known), Known{Index: 30, Digest: other})); err == nil {
		t.Error("conflicting leaf digests accepted")
	}
	clash := *p
	clash.Entries = append(append([]Entry(nil), p.Entries...), Entry{Level: p.Entries[0].Level, Index: p.Entries[0].Index, Digest: other})
	if _, err := Reconstruct(&clash, leaves(known)); err == nil {
		t.Error("conflicting entry digests accepted")
	}
}

// TestReconstructScratchSteadyState: a reused scratch folds without
// allocating — hash count is the whole cost.
func TestReconstructScratchSteadyState(t *testing.T) {
	tr, _ := BuildFromMessages(digest.SHA1, 2, msgs(500))
	idx := []int{5, 6, 7, 100, 101, 300, 499}
	p, _ := tr.Prove(idx)
	known := make([]Known, len(idx))
	for i, x := range idx {
		known[i] = Known{Index: uint32(x), Digest: tr.Leaf(x)}
	}
	var s Scratch
	fold := func() {
		root, err := s.Reconstruct(p, known)
		if err != nil || !bytes.Equal(root, tr.Root()) {
			t.Fatalf("reconstruct: %v", err)
		}
	}
	fold()
	if n := testing.AllocsPerRun(20, fold); n != 0 {
		t.Errorf("steady-state Reconstruct allocates %v times", n)
	}
}

// refReconstruct is the slow obviously-correct reference for Reconstruct:
// one map per level, every level folded bottom-up, with the same contract —
// each claimed digest must be hashed into the root, claims for one position
// must agree.
func refReconstruct(p *Proof, known []Known) ([]byte, error) {
	if !p.Alg.Valid() || p.Fanout < 2 || p.Fanout > MaxFanout || p.NumLeaves == 0 {
		return nil, fmt.Errorf("bad shape")
	}
	var widths []int
	for w := int(p.NumLeaves); ; w = (w + int(p.Fanout) - 1) / int(p.Fanout) {
		widths = append(widths, w)
		if w == 1 {
			break
		}
	}
	have := make([]map[int][]byte, len(widths))
	for l := range have {
		have[l] = map[int][]byte{}
	}
	claim := func(l, i int, d []byte) error {
		if l >= len(widths) || i >= widths[l] || len(d) != p.Alg.Size() {
			return fmt.Errorf("claim (%d,%d) outside shape", l, i)
		}
		if prev, ok := have[l][i]; ok && !bytes.Equal(prev, d) {
			return fmt.Errorf("conflict at (%d,%d)", l, i)
		}
		have[l][i] = d
		return nil
	}
	for _, k := range known {
		if err := claim(0, int(k.Index), k.Digest); err != nil {
			return nil, err
		}
	}
	for _, e := range p.Entries {
		if err := claim(int(e.Level), int(e.Index), e.Digest); err != nil {
			return nil, err
		}
	}
	for l := 0; l+1 < len(widths); l++ {
		grp := groupLevel(widths[l], int(p.Fanout))
		for c := range have[l] {
			par := grp.parentOf(c)
			first, last := grp.childRange(par)
			var cat []byte
			for k := first; k < last; k++ {
				d, ok := have[l][k]
				if !ok {
					return nil, fmt.Errorf("%w: (%d,%d)", ErrIncomplete, l, k)
				}
				cat = append(cat, d...)
			}
			if err := claim(l+1, par, p.Alg.Sum(cat)); err != nil {
				return nil, err
			}
		}
	}
	root, ok := have[len(widths)-1][0]
	if !ok {
		return nil, ErrIncomplete
	}
	return root, nil
}

// TestReconstructMatchesReference drives the level fold and the map-based
// reference with honest proofs and random structural mutations — entries
// dropped, repeated, re-levelled, re-indexed, bit-flipped, shuffled, leaves
// dropped or moved, shape lies — and demands the same verdict, and on
// accept the same root, every time.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	accepted := 0
	for iter := 0; iter < 4000; iter++ {
		n := 1 + rng.Intn(90)
		fanout := 2 + rng.Intn(5)
		tr, _ := BuildFromMessages(digest.SHA1, fanout, msgs(n))
		var idx []int
		for k := 1 + rng.Intn(6); k > 0; k-- {
			idx = append(idx, rng.Intn(n))
		}
		p, _ := tr.Prove(idx)
		p.Entries = slices.Clone(p.Entries)
		var known []Known
		for _, i := range idx {
			known = append(known, Known{Index: uint32(i), Digest: tr.Leaf(i)})
		}
		for m := rng.Intn(3); m > 0; m-- {
			e := -1
			if len(p.Entries) > 0 {
				e = rng.Intn(len(p.Entries))
			}
			switch op := rng.Intn(10); {
			case op == 0 && e >= 0:
				p.Entries = slices.Delete(p.Entries, e, e+1)
			case op == 1 && e >= 0:
				p.Entries = append(p.Entries, p.Entries[e])
			case op == 2 && e >= 0:
				p.Entries[e].Level = uint8(rng.Intn(tr.Height() + 1))
			case op == 3 && e >= 0:
				p.Entries[e].Index = uint32(rng.Intn(n + 1))
			case op == 4 && e >= 0:
				d := slices.Clone(p.Entries[e].Digest)
				d[rng.Intn(len(d))] ^= 1 << rng.Intn(8)
				p.Entries[e].Digest = d
			case op == 5:
				rng.Shuffle(len(p.Entries), func(a, b int) { p.Entries[a], p.Entries[b] = p.Entries[b], p.Entries[a] })
			case op == 6 && len(known) > 0:
				known = slices.Delete(known, 0, 1)
			case op == 7 && len(known) > 0:
				known[rng.Intn(len(known))].Index = uint32(rng.Intn(n + 2))
			case op == 8:
				// An ancestor digest of some level, true for its position.
				l := rng.Intn(tr.Height())
				i := rng.Intn(tr.width(l))
				p.Entries = append(p.Entries, Entry{Level: uint8(l), Index: uint32(i), Digest: tr.digest(l, i)})
			case op == 9:
				p.NumLeaves = uint32(rng.Intn(n + 3))
			}
		}
		want, wantErr := refReconstruct(p, slices.Clone(known))
		got, gotErr := s.Reconstruct(p, known)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("iter %d (n=%d fanout=%d): fold (%x, %v), reference (%x, %v)", iter, n, fanout, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if accepted < 500 || accepted > 3500 {
		t.Errorf("%d of 4000 cases accepted: the mutation mix no longer exercises both verdicts", accepted)
	}
}
