package mbt

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/mht/mhttest"
)

// sliceSource is a Source over an entry slice.
func sliceSource(entries []Entry) Source {
	return func(dst []Entry, lo, hi int) []Entry { return append(dst, entries[lo:hi]...) }
}

// build is Build over an entry slice.
func build(alg digest.Alg, fanout int, entries []Entry) (*Tree, error) {
	return Build(alg, fanout, len(entries), sliceSource(entries))
}

func testEntries(n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{Key: MakeKey(uint32(i/7), uint32(i%7)), Value: float64(i) * 1.5})
	}
	return out
}

// proven pairs entries with their leaf indices: the tests' key layout is
// "entry i is leaf i", the role hiti.LeafIndex plays for HYP.
func proven(entries []Entry, idx ...int) []ProvenEntry {
	out := make([]ProvenEntry, len(idx))
	for n, i := range idx {
		out[n] = ProvenEntry{Entry: entries[i], Index: uint32(i)}
	}
	return out
}

// proveKeys proves keys of the entries tr was built from, as a caller
// without a closed-form layout would: by searching its own entry list.
func proveKeys(tr *Tree, entries []Entry, keys []Key) (*Proof, error) {
	idx := make([]int, len(keys))
	for n, k := range keys {
		i, ok := slices.BinarySearchFunc(entries, k, func(e Entry, k Key) int { return cmp.Compare(e.Key, k) })
		if !ok {
			return nil, fmt.Errorf("key %d not present", k)
		}
		idx[n] = i
	}
	return tr.Prove(new(mht.ProveScratch), proven(entries, idx...))
}

func TestMakeKeySplit(t *testing.T) {
	f := func(i, j uint32) bool {
		a, b := MakeKey(i, j).Split()
		return a == i && b == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Ordering: keys sort by (i, j) lexicographically.
	if MakeKey(1, 0) <= MakeKey(0, 0xffffffff) {
		t.Error("key ordering broken across i boundary")
	}
	if MakeKey(3, 5) <= MakeKey(3, 4) {
		t.Error("key ordering broken within row")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(digest.SHA1, 4, 0, sliceSource(nil)); err == nil {
		t.Error("empty entries accepted")
	}
	if _, err := build(digest.Alg(99), 4, testEntries(3)); err == nil {
		t.Error("invalid hash algorithm accepted")
	}
}

// TestLeafOrderIsTheCallers pins the ordering contract: Build takes entries
// strictly increasing by key and rejects anything else — a duplicate or a
// descent, near the front, at the back or in between — instead of sorting
// behind the caller's back; RehydrateTree holds the stored levels to the
// cut of their entry count.
func TestLeafOrderIsTheCallers(t *testing.T) {
	good := testEntries(40)
	tr, err := build(digest.SHA1, 4, good)
	if err != nil {
		t.Fatal(err)
	}
	if re, err := RehydrateTree(40, tr.Stored(), sliceSource(good)); err != nil || re.Len() != 40 || !bytes.Equal(re.Root(), tr.Root()) {
		t.Fatalf("matching leaf count rejected on rehydrate: %v", err)
	}
	for _, at := range []int{2, 20, 39} {
		for name, key := range map[string]Key{"duplicate": good[at-1].Key, "descending": good[at-1].Key - 1} {
			bad := slices.Clone(good)
			bad[at].Key = key
			if _, err := build(digest.SHA1, 4, bad); err == nil {
				t.Errorf("Build accepted a %s key at entry %d", name, at)
			}
		}
	}
	for _, n := range []int{20, 160} {
		if _, err := RehydrateTree(n, tr.Stored(), sliceSource(good)); err == nil {
			t.Errorf("RehydrateTree accepted a 40-entry tree's top for %d entries", n)
		}
	}
	short, err := mht.Rehydrate(digest.SHA1, 4, tr.Stored().Levels()[1:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RehydrateTree(40, short, sliceSource(good)); err == nil {
		t.Error("RehydrateTree accepted a stored level short")
	}
}

// TestUpdateValuesMatchesRebuild patches values by leaf index and compares
// against a fresh build; the receiver keeps proving the old values, and a
// leaf index outside the tree is refused.
func TestUpdateValuesMatchesRebuild(t *testing.T) {
	entries := testEntries(60)
	tr, _ := build(digest.SHA1, 4, entries)
	oldRoot := bytes.Clone(tr.Root())
	patch := []ProvenEntry{
		{Entry: Entry{Key: entries[7].Key, Value: 99}, Index: 7},
		{Entry: Entry{Key: entries[59].Key, Value: -1}, Index: 59},
	}
	patched := slices.Clone(entries)
	patched[7].Value, patched[59].Value = 99, -1
	nt, err := tr.UpdateValues(sliceSource(patched), patch)
	if err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}
	want, _ := build(digest.SHA1, 4, patched)
	if !bytes.Equal(nt.Root(), want.Root()) {
		t.Error("patched root differs from a rebuild")
	}
	var s mht.ProveScratch
	if p, err := nt.Prove(&s, proven(patched, 7, 8, 59)); err != nil || p.Verify(want.Root()) != nil {
		t.Errorf("patched tree does not prove the patched entries: %v", err)
	}
	if p, err := tr.Prove(&s, proven(entries, 7, 59)); err != nil || p.Verify(oldRoot) != nil {
		t.Errorf("the receiver was modified: %v", err)
	}
	if same, err := tr.UpdateValues(sliceSource(entries), nil); err != nil || !bytes.Equal(same.Root(), oldRoot) {
		t.Error("an empty patch should keep the receiver's levels")
	}
	if _, err := tr.UpdateValues(sliceSource(entries), []ProvenEntry{{Entry: entries[7], Index: 60}}); err == nil {
		t.Error("leaf 60 of 60 accepted")
	}
}

func TestProveVerifySingleKey(t *testing.T) {
	tr, _ := build(digest.SHA1, 4, testEntries(50))
	p, err := proveKeys(tr, testEntries(tr.Len()), []Key{MakeKey(3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(tr.Root()); err != nil {
		t.Errorf("valid proof rejected: %v", err)
	}
	v, err := p.Value(MakeKey(3, 2))
	if err != nil || v != testEntries(50)[23].Value {
		t.Errorf("Value = %v, %v", v, err)
	}
	if _, err := p.Value(MakeKey(9, 9)); err == nil {
		t.Error("Value for unproven key succeeded")
	}
}

func TestProveVerifyMultiKeyProperty(t *testing.T) {
	entries := testEntries(200)
	tr, _ := build(digest.SHA1, 8, entries)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		keys := make([]Key, k)
		for i := range keys {
			keys[i] = entries[rng.Intn(len(entries))].Key
		}
		p, err := proveKeys(tr, entries, keys)
		if err != nil {
			t.Logf("prove: %v", err)
			return false
		}
		if err := p.Verify(tr.Root()); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		for n, key := range keys {
			got, err := p.Value(key)
			if err != nil || got != p.Entries[n].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProveRejectsBadIndices(t *testing.T) {
	entries := testEntries(10)
	tr, _ := build(digest.SHA1, 4, entries)
	var s mht.ProveScratch
	for _, idx := range [][]uint32{nil, {10}, {1 << 31}, {3, 11}} {
		ask := make([]ProvenEntry, len(idx))
		for n, i := range idx {
			ask[n] = ProvenEntry{Entry: entries[3], Index: i}
		}
		if _, err := tr.Prove(&s, ask); err == nil {
			t.Errorf("leaf set %v accepted", idx)
		}
	}
}

// TestProveBindsEntriesToTheirLeaves: Prove takes the caller's word for an
// entry, and the root check is what holds the caller to it — a value or an
// index that is not the leaf's fails verification.
func TestProveBindsEntriesToTheirLeaves(t *testing.T) {
	entries := testEntries(50)
	tr, _ := build(digest.SHA1, 4, entries)
	var s mht.ProveScratch
	honest, err := tr.Prove(&s, proven(entries, 4, 5, 40))
	if err != nil || honest.Verify(tr.Root()) != nil {
		t.Fatalf("honest entries rejected: %v", err)
	}
	wrongValue := proven(entries, 4, 5, 40)
	wrongValue[1].Value++
	wrongLeaf := proven(entries, 4, 5, 40)
	wrongLeaf[2].Index = 41
	for name, ask := range map[string][]ProvenEntry{"value": wrongValue, "leaf": wrongLeaf} {
		p, err := tr.Prove(&s, ask)
		if err != nil {
			t.Fatal(err)
		}
		if p.Verify(tr.Root()) == nil {
			t.Errorf("an entry with the wrong %s verified", name)
		}
	}
}

func TestProofTamperDetection(t *testing.T) {
	tr, _ := build(digest.SHA1, 4, testEntries(64))
	key := MakeKey(4, 4)

	// Inflated distance value.
	p, _ := proveKeys(tr, testEntries(tr.Len()), []Key{key})
	p.Entries[0].Value += 1
	if err := p.Verify(tr.Root()); err == nil {
		t.Error("tampered value verified")
	}
	// Re-pointed key: claim the proven entry is for a different pair.
	p2, _ := proveKeys(tr, testEntries(tr.Len()), []Key{key})
	p2.Entries[0].Key = MakeKey(5, 5)
	if err := p2.Verify(tr.Root()); err == nil {
		t.Error("re-keyed entry verified")
	}
	// Index shifting.
	p3, _ := proveKeys(tr, testEntries(tr.Len()), []Key{key})
	p3.Entries[0].Index++
	if err := p3.Verify(tr.Root()); err == nil {
		t.Error("index-shifted entry verified")
	}
	// Foreign root.
	p4, _ := proveKeys(tr, testEntries(tr.Len()), []Key{key})
	other, _ := build(digest.SHA1, 4, testEntries(63))
	if err := p4.Verify(other.Root()); err == nil {
		t.Error("proof verified against foreign root")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	tr, _ := build(digest.SHA256, 4, testEntries(100))
	p, _ := proveKeys(tr, testEntries(tr.Len()), []Key{MakeKey(0, 0), MakeKey(14, 1)})
	enc := p.AppendBinary(nil)
	if len(enc) != p.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize %d", len(enc), p.EncodedSize())
	}
	dec, n, err := DecodeProof(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (consumed %d of %d)", err, n, len(enc))
	}
	if err := dec.Verify(tr.Root()); err != nil {
		t.Errorf("decoded proof rejected: %v", err)
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodeProof(enc[:cut]); err == nil {
			t.Errorf("truncated proof (%d bytes) decoded", cut)
		}
	}
}

// --- Forest (FULL's lazy two-level tree) ---

// testMatrix builds a deterministic n×n "distance" matrix.
func testMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			d := float64((i-j)*(i-j)%97) + 0.25
			if i == j {
				d = 0
			}
			m[i][j] = d
		}
	}
	return m
}

func buildForest(t testing.TB, n, fanout int) (*Forest, [][]float64) {
	t.Helper()
	m := testMatrix(n)
	b, err := NewForestBuilder(digest.SHA1, fanout, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.AddRow(m[i]); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.Finish(func(i int) []float64 { return m[i] })
	if err != nil {
		t.Fatal(err)
	}
	return f, m
}

func TestForestProveVerify(t *testing.T) {
	f, m := buildForest(t, 33, 4)
	for _, pair := range [][2]int{{0, 0}, {0, 32}, {32, 0}, {17, 21}, {32, 32}} {
		p, err := f.Prove(pair[0], pair[1])
		if err != nil {
			t.Fatalf("prove(%v): %v", pair, err)
		}
		if p.Entry.Value != m[pair[0]][pair[1]] {
			t.Errorf("prove(%v) value %v, want %v", pair, p.Entry.Value, m[pair[0]][pair[1]])
		}
		if err := p.Verify(f.Root()); err != nil {
			t.Errorf("verify(%v): %v", pair, err)
		}
	}
}

func TestForestProofTamperDetection(t *testing.T) {
	f, _ := buildForest(t, 20, 2)
	p, _ := f.Prove(5, 7)
	p.Entry.Value *= 2
	if err := p.Verify(f.Root()); err == nil {
		t.Error("tampered forest value verified")
	}
	p2, _ := f.Prove(5, 7)
	p2.Entry.Key = MakeKey(5, 8)
	if err := p2.Verify(f.Root()); err == nil {
		t.Error("re-keyed forest entry verified")
	}
	p3, _ := f.Prove(5, 7)
	p3.Row.Entries[0].Digest[3] ^= 0x80
	if err := p3.Verify(f.Root()); err == nil {
		t.Error("tampered row proof verified")
	}
}

func TestForestRejectsBadShape(t *testing.T) {
	if _, err := NewForestBuilder(digest.SHA1, 2, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewForestBuilder(digest.SHA1, 1, 5); err == nil {
		t.Error("fanout 1 accepted")
	}
	b, _ := NewForestBuilder(digest.SHA1, 2, 3)
	if err := b.AddRow([]float64{1, 2}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := b.Finish(nil); err == nil {
		t.Error("finish with missing rows accepted")
	}
	for i := 0; i < 3; i++ {
		if err := b.AddRow([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddRow([]float64{1, 2, 3}); err == nil {
		t.Error("extra row accepted")
	}
}

func TestForestOutOfRangeProve(t *testing.T) {
	f, _ := buildForest(t, 5, 2)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {5, 0}, {0, 5}} {
		if _, err := f.Prove(pair[0], pair[1]); err == nil {
			t.Errorf("prove(%v) succeeded", pair)
		}
	}
}

func TestForestDetectsRowDrift(t *testing.T) {
	// If the provider's row function returns different data than what the
	// owner folded into the root, Prove must fail loudly.
	m := testMatrix(10)
	b, _ := NewForestBuilder(digest.SHA1, 2, 10)
	for i := 0; i < 10; i++ {
		if err := b.AddRow(m[i]); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.Finish(func(i int) []float64 {
		row := append([]float64(nil), m[i]...)
		row[0] += 1 // drift
		return row
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Prove(3, 3); err == nil {
		t.Error("drifted row accepted at prove time")
	}
}

func TestForestProofSerializationRoundTrip(t *testing.T) {
	f, _ := buildForest(t, 26, 3)
	p, _ := f.Prove(11, 19)
	enc := p.AppendBinary(nil)
	if len(enc) != p.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize %d", len(enc), p.EncodedSize())
	}
	dec, n, err := DecodeForestProof(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (consumed %d of %d)", err, n, len(enc))
	}
	if err := dec.Verify(f.Root()); err != nil {
		t.Errorf("decoded proof rejected: %v", err)
	}
	if dec.NumItems() != p.NumItems() {
		t.Errorf("NumItems mismatch after round trip")
	}
}

func TestForestMatchesExplicitTree(t *testing.T) {
	// A forest over an n×n matrix must produce the same proofs semantics as
	// an explicit tree over the same entries: both authenticate the same
	// (key, value) pairs. Roots differ (different shapes) but verification
	// behaviour must agree: every entry provable in one is provable in the
	// other with the same value.
	n := 9
	m := testMatrix(n)
	f, _ := buildForest(t, n, 3)
	var entries []Entry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			entries = append(entries, Entry{Key: MakeKey(uint32(i), uint32(j)), Value: m[i][j]})
		}
	}
	tr, err := build(digest.SHA1, 3, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		fp, err := f.Prove(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.Verify(f.Root()); err != nil {
			t.Fatal(err)
		}
		tp, err := proveKeys(tr, entries, []Key{MakeKey(uint32(i), uint32(j))})
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Verify(tr.Root()); err != nil {
			t.Fatal(err)
		}
		tv, _ := tp.Value(MakeKey(uint32(i), uint32(j)))
		if fp.Entry.Value != tv {
			t.Errorf("(%d,%d): forest %v vs tree %v", i, j, fp.Entry.Value, tv)
		}
	}
}

func TestForestRootChangesWithData(t *testing.T) {
	f1, _ := buildForest(t, 12, 2)
	m := testMatrix(12)
	m[3][4] += 0.5
	b, _ := NewForestBuilder(digest.SHA1, 2, 12)
	for i := 0; i < 12; i++ {
		b.AddRow(m[i])
	}
	f2, _ := b.Finish(func(i int) []float64 { return m[i] })
	if bytes.Equal(f1.Root(), f2.Root()) {
		t.Error("different matrices produced identical roots")
	}
}

// fullTree is the whole Merkle tree Build's stored levels are the top of:
// mht.Build over every entry's leaf digest.
func fullTree(t testing.TB, alg digest.Alg, fanout int, entries []Entry) *mht.Tree {
	t.Helper()
	mt, err := mht.Build(alg, fanout, appendLeaves(nil, alg, sliceSource(entries), 0, len(entries)))
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// sameAsFull holds tr to the whole tree over entries: the root, the
// stored levels byte for byte — from the lowest level with at most
// ⌈n/GroupLeaves⌉ nodes up — and the proof of each index set, which
// carries digests of the levels below.
func sameAsFull(t *testing.T, tr *Tree, entries []Entry, sets [][]int) {
	t.Helper()
	full := fullTree(t, tr.Alg(), tr.Fanout(), entries)
	if !bytes.Equal(tr.Root(), full.Root()) {
		t.Fatalf("%d entries, fanout %d: root differs from the whole tree's", len(entries), tr.Fanout())
	}
	all, got := full.Levels(), tr.Stored().Levels()
	cut, size, limit := len(all)-len(got), tr.Alg().Size(), (len(entries)+GroupLeaves-1)/GroupLeaves
	if cut < 0 || len(all[cut]) > limit*size || cut > 0 && len(all[cut-1]) <= limit*size {
		t.Fatalf("%d entries, fanout %d: stores %d of %d levels", len(entries), tr.Fanout(), len(got), len(all))
	}
	for l, want := range all[cut:] {
		if !bytes.Equal(got[l], want) {
			t.Fatalf("%d entries, fanout %d: level %d differs from the whole tree's", len(entries), tr.Fanout(), cut+l)
		}
	}
	var s mht.ProveScratch
	for _, idx := range sets {
		p, err := tr.Prove(&s, proven(entries, idx...))
		if err != nil {
			t.Fatal(err)
		}
		mp, err := full.Prove(idx)
		if err != nil {
			t.Fatal(err)
		}
		want := (&Proof{Entries: proven(entries, idx...), MHT: mp}).AppendBinary(nil)
		if got := p.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%d entries, fanout %d: proof of %v differs from the whole tree's", len(entries), tr.Fanout(), idx)
		}
	}
}

// TestTreeMatchesFullBuild: a tree that stores only its top is the whole
// tree to every reader — root, level bytes and proofs, for single leaves,
// runs that start and end inside groups, whole groups and scattered sets,
// before and after UpdateValues — across leaf counts around the group
// size and fanouts whose B⁺ grouping leaves groups of unequal spans.
func TestTreeMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 15, 16, 17, 31, 100, 1000, 4099} {
		for _, fanout := range []int{2, 3, 4, 7} {
			entries := testEntries(n)
			tr, err := build(digest.SHA1, fanout, entries)
			if err != nil {
				t.Fatal(err)
			}
			sets := [][]int{{0}, {n - 1}}
			for k := 0; k < 12; k++ {
				lo := rng.Intn(n)
				hi := min(n, lo+1+rng.Intn(3*GroupLeaves))
				run := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					run = append(run, i)
				}
				rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
				scattered := make([]int, 1+rng.Intn(8))
				for i := range scattered {
					scattered[i] = rng.Intn(n)
				}
				sets = append(sets, run, scattered)
			}
			sameAsFull(t, tr, entries, sets)

			patched := slices.Clone(entries)
			var moved []ProvenEntry
			for k := 0; k < 1+n/10; k++ {
				i := rng.Intn(n)
				patched[i].Value = rng.Float64()
				moved = append(moved, ProvenEntry{Entry: patched[i], Index: uint32(i)})
			}
			nt, err := tr.UpdateValues(sliceSource(patched), moved)
			if err != nil {
				t.Fatal(err)
			}
			sameAsFull(t, nt, patched, sets)
			sameAsFull(t, tr, entries, sets[:2]) // the receiver is untouched
		}
	}
}

// TestTreeAuditFindsTheGroup: Audit passes a tree whose Source is the one
// it was built over, and names the stored digest above an entry whose
// value the Source no longer gives.
func TestTreeAuditFindsTheGroup(t *testing.T) {
	entries := testEntries(1000)
	tr, err := build(digest.SHA1, 2, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Audit(); err != nil {
		t.Fatalf("clean tree: %v", err)
	}
	bad := slices.Clone(entries)
	bad[517].Value++
	re, err := RehydrateTree(len(bad), tr.Stored(), sliceSource(bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Audit(); err == nil || !strings.Contains(err.Error(), "does not fold") {
		t.Fatalf("entry 517 moved under the stored levels: got %v", err)
	}
}

// hypShape is the benchmark world's HYP distance tree: mhttest.HYPLeaves
// entries, fanout 2, SHA-1, over a slice standing in for hiti's border
// rows.
func hypShape(b *testing.B) (*Tree, []Entry) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, mhttest.HYPLeaves)
	for i := range entries {
		entries[i] = Entry{Key: MakeKey(uint32(i>>10), uint32(i&1023)), Value: rng.Float64() * 1e4}
	}
	tr, err := build(digest.SHA1, 2, entries)
	if err != nil {
		b.Fatal(err)
	}
	return tr, entries
}

var benchSink any

// BenchmarkTreeProve proves the median and p90 hyper-edge blocks of a HYP
// query (mhttest.Blocks) against the stored-top tree: the proof plus the
// groups it re-hashes from the entries.
func BenchmarkTreeProve(b *testing.B) {
	tr, entries := hypShape(b)
	for _, blk := range mhttest.Blocks {
		b.Run(blk.Name, func(b *testing.B) {
			var s mht.ProveScratch
			block := proven(entries, blk.Indices()...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := tr.Prove(&s, block)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = p
			}
		})
	}
}

// BenchmarkTreeUpdateValues moves 4,461 values — the entries one edge
// update on the benchmark world moves — spread at random, so every one
// dirties its own group at worst.
func BenchmarkTreeUpdateValues(b *testing.B) {
	tr, entries := hypShape(b)
	rng := rand.New(rand.NewSource(2))
	patched := slices.Clone(entries)
	moved := make([]ProvenEntry, 4461)
	for k := range moved {
		i := rng.Intn(len(entries))
		patched[i].Value++
		moved[k] = ProvenEntry{Entry: patched[i], Index: uint32(i)}
	}
	src := sliceSource(patched)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt, err := tr.UpdateValues(src, moved)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = nt
	}
}
