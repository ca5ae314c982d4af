package mbt

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
)

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
	if _, err := Build(digest.SHA1, 4, nil); err == nil {
		t.Error("empty entries accepted")
	}
	if _, err := Build(digest.Alg(99), 4, testEntries(3)); err == nil {
		t.Error("invalid hash algorithm accepted")
	}
}

// TestLeafOrderIsTheCallers pins the ordering contract: Build takes entries
// strictly increasing by key and rejects anything else — a duplicate or a
// descent, near the front, at the back or in between — instead of sorting
// behind the caller's back; RehydrateTree holds the caller's layout to the
// tree's leaf count.
func TestLeafOrderIsTheCallers(t *testing.T) {
	good := testEntries(40)
	tr, err := Build(digest.SHA1, 4, good)
	if err != nil {
		t.Fatal(err)
	}
	if re, err := RehydrateTree(tr.MHT(), len(good)); err != nil || re.Len() != 40 || !bytes.Equal(re.Root(), tr.Root()) {
		t.Fatalf("matching leaf count rejected on rehydrate: %v", err)
	}
	for _, at := range []int{2, 20, 39} {
		for name, key := range map[string]Key{"duplicate": good[at-1].Key, "descending": good[at-1].Key - 1} {
			bad := slices.Clone(good)
			bad[at].Key = key
			if _, err := Build(digest.SHA1, 4, bad); err == nil {
				t.Errorf("Build accepted a %s key at entry %d", name, at)
			}
		}
	}
	if _, err := RehydrateTree(tr.MHT(), 39); err == nil {
		t.Error("RehydrateTree accepted fewer entries than leaves")
	}
	if _, err := RehydrateTree(nil, 40); err == nil {
		t.Error("RehydrateTree accepted a nil Merkle tree")
	}
}

// TestUpdateValuesMatchesRebuild patches values by leaf index and compares
// against a fresh build; the receiver keeps proving the old values, and a
// leaf index outside the tree is refused.
func TestUpdateValuesMatchesRebuild(t *testing.T) {
	entries := testEntries(60)
	tr, _ := Build(digest.SHA1, 4, entries)
	oldRoot := bytes.Clone(tr.Root())
	patch := []ProvenEntry{
		{Entry: Entry{Key: entries[7].Key, Value: 99}, Index: 7},
		{Entry: Entry{Key: entries[59].Key, Value: -1}, Index: 59},
	}
	nt, err := tr.UpdateValues(patch)
	if err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}
	patched := slices.Clone(entries)
	patched[7].Value, patched[59].Value = 99, -1
	want, _ := Build(digest.SHA1, 4, patched)
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
	if same, err := tr.UpdateValues(nil); err != nil || same != tr {
		t.Error("an empty patch should return the receiver")
	}
	if _, err := tr.UpdateValues([]ProvenEntry{{Entry: entries[7], Index: 60}}); err == nil {
		t.Error("leaf 60 of 60 accepted")
	}
}

func TestProveVerifySingleKey(t *testing.T) {
	tr, _ := Build(digest.SHA1, 4, testEntries(50))
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
	tr, _ := Build(digest.SHA1, 8, entries)
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
	tr, _ := Build(digest.SHA1, 4, entries)
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
	tr, _ := Build(digest.SHA1, 4, entries)
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
	tr, _ := Build(digest.SHA1, 4, testEntries(64))
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
	other, _ := Build(digest.SHA1, 4, testEntries(63))
	if err := p4.Verify(other.Root()); err == nil {
		t.Error("proof verified against foreign root")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	tr, _ := Build(digest.SHA256, 4, testEntries(100))
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
	tr, err := Build(digest.SHA1, 3, entries)
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
