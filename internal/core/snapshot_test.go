package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/sp"
	"github.com/authhints/spv/internal/workload"
)

// snapshotWorld builds a deterministic test world with all four methods
// outsourced.
func snapshotWorld(t testing.TB, nodes, edges int) (*Owner, *DIJProvider, *FULLProvider, *LDMProvider, *HYPProvider) {
	t.Helper()
	g, err := netgen.Synthesize(nodes, edges, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 6
	cfg.Cells = 16
	owner, err := NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := outsourceWorld(t, g, owner)
	return owner, w.dij, w.full, w.ldm, w.hyp
}

// setProofBytes builds the wire encoding of one query against one provider.
func setProofBytes(t *testing.T, m Method, set *ProviderSet, vs, vt graph.NodeID) []byte {
	t.Helper()
	p := set.Provider(m)
	if p == nil {
		t.Fatalf("set has no %s provider", m)
	}
	pr, err := p.QueryProof(vs, vt)
	if err != nil {
		t.Fatalf("%s query (%d,%d): %v", m, vs, vt, err)
	}
	return pr.AppendBinary(nil)
}

// TestSnapshotRoundTrip is the acceptance pin for the persistence layer: a
// provider set loaded from a snapshot produces proof wire encodings
// byte-identical to the in-process originals, for every method, across a
// workload of queries — and those proofs verify against the embedded
// public key.
func TestSnapshotRoundTrip(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)

	var buf bytes.Buffer
	n, err := owner.WriteSnapshot(&buf, dij, full, ldm, hyp)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}

	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Methods(); len(got) != 4 {
		t.Fatalf("loaded methods %v, want all four", got)
	}
	// Eager means hydrated: no shell left to decode later, no file held.
	for _, m := range set.Methods() {
		if _, shell := set.Provider(m).(*lazyProvider); shell || set.file != nil {
			t.Fatalf("eager load left %s behind a lazy shell (file held: %v)", m, set.file != nil)
		}
	}
	if set.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", set.Epoch)
	}
	if !set.Verifier.Equal(owner.Verifier()) {
		t.Fatal("loaded verifier differs from the owner's")
	}

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 16, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		for _, q := range qs {
			want := setProofBytes(t, m, orig, q.S, q.T)
			got := setProofBytes(t, m, set, q.S, q.T)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s proof (%d,%d): loaded encoding differs (%d vs %d bytes)",
					m, q.S, q.T, len(got), len(want))
			}
		}
	}

	// The loaded proofs must verify against the loaded verifier — the
	// replica serves clients that bootstrapped from the original owner.
	q := qs[0]
	for _, m := range set.Methods() {
		pr, err := set.Provider(m).QueryProof(q.S, q.T)
		if err != nil || VerifyProof(set.Verifier, m, q.S, q.T, pr) != nil {
			t.Fatalf("loaded %s proof does not verify: %v", m, err)
		}
	}
}

// TestSnapshotRoundTripAfterUpdates pins that a snapshot taken *after*
// incremental updates captures the patched state exactly: the loaded
// providers reproduce the updated owner's proofs and epoch.
func TestSnapshotRoundTripAfterUpdates(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 160, 220)

	var target graph.NodeID = -1
	var weight float64
	for v := 0; v < owner.Graph().NumNodes() && target < 0; v++ {
		for _, e := range owner.Graph().Neighbors(graph.NodeID(v)) {
			target, weight = graph.NodeID(v), e.W*1.25
			break
		}
	}
	nbr := owner.Graph().Neighbors(target)[0].To

	batch, err := owner.ApplyUpdates([]EdgeUpdate{{U: target, V: nbr, W: weight}})
	if err != nil {
		t.Fatal(err)
	}
	dij, _ = patch(t, batch, dij)
	full, _ = patch(t, batch, full)
	ldm, _ = patch(t, batch, ldm)
	hyp, _ = patch(t, batch, hyp)

	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, full, ldm, hyp); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", set.Epoch)
	}

	orig := &ProviderSet{}
	for _, p := range []Provider{dij, full, ldm, hyp} {
		orig.SetProvider(p)
	}
	qs, err := workload.Generate(owner.Graph(), 8, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		for _, q := range qs {
			want := setProofBytes(t, m, orig, q.S, q.T)
			got := setProofBytes(t, m, set, q.S, q.T)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s proof (%d,%d) differs after update round-trip", m, q.S, q.T)
			}
		}
	}
}

// TestSnapshotSubset verifies partial method sets load as written.
func TestSnapshotSubset(t *testing.T) {
	owner, dij, _, _, hyp := snapshotWorld(t, 120, 160)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, hyp); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Provider(DIJ) == nil || set.Provider(HYP) == nil ||
		set.Provider(FULL) != nil || set.Provider(LDM) != nil {
		t.Fatalf("loaded methods %v, want [DIJ HYP]", set.Methods())
	}
}

// TestSnapshotRejectsForeignProvider pins the ownership check.
func TestSnapshotRejectsForeignProvider(t *testing.T) {
	owner, dij, _, _, _ := snapshotWorld(t, 120, 160)
	other, _, _, _, _ := snapshotWorld(t, 120, 160)
	var buf bytes.Buffer
	if _, err := other.WriteSnapshot(&buf, dij); err == nil {
		t.Fatal("foreign provider accepted")
	}
	if _, err := owner.WriteSnapshot(&buf); err == nil {
		t.Fatal("empty provider set accepted")
	}
}

// TestSnapshotRejectsStaleProvider pins the update-generation check: a
// provider left un-patched across an ApplyUpdates batch still searches
// the pre-update frozen view, and snapshotting it would pair the new
// graph with old trees and signatures. WriteSnapshot must refuse.
func TestSnapshotRejectsStaleProvider(t *testing.T) {
	owner, dij, _, ldm, _ := snapshotWorld(t, 120, 160)
	u := graph.NodeID(3)
	e := owner.Graph().Neighbors(u)[0]
	batch, err := owner.ApplyUpdates([]EdgeUpdate{{U: u, V: e.To, W: e.W * 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	patched, _, err := batch.Patch(dij)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Patched provider alone: fine.
	if _, err := owner.WriteSnapshot(&buf, patched); err != nil {
		t.Fatalf("patched provider rejected: %v", err)
	}
	// The un-patched LDM provider predates the batch: must be refused.
	if _, err := owner.WriteSnapshot(&buf, patched, ldm); err == nil {
		t.Fatal("stale provider accepted into a snapshot")
	}
}

// TestSnapshotCorruption flips bytes across the snapshot body and checks
// the loader errors (container CRC or semantic validation) without
// panicking. Exhaustive flipping is the fuzzer's job; this samples. Under
// a re-sealed checksum, HYP's stored trees must be ones fold and Repair
// can walk, and a W* value — trusted at load — is caught by the audit and
// by client verification.
func TestSnapshotCorruption(t *testing.T) {
	owner, dij, _, ldm, hyp := snapshotWorld(t, 100, 140)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij, ldm); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for off := 8; off < len(data); off += 97 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x20
		if _, err := ReadProviderSet(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatalf("flip at %d loaded cleanly", off)
		}
	}
	for _, n := range []int{0, 10, len(data) / 2, len(data) - 1} {
		if _, err := ReadProviderSet(bytes.NewReader(data[:n]), int64(n)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v", n, err)
		}
	}

	// W*(B0, B1) lives at column 1 of row 0, the lower-ID border's row;
	// flipping a high mantissa bit moves it far past the audit's float
	// tolerance.
	c, err := owner.Certify(hyp)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := owner.WriteSnapshotCert(&buf, c, hyp); err != nil {
		t.Fatal(err)
	}
	set, err := readSet(resealed(t, buf.Bytes(), func(p []byte) []byte {
		w, _ := hypSection(p)
		p[w+8*1+2] ^= 0x80
		return p
	}))
	if err != nil {
		t.Fatalf("W* values are trusted at load: %v", err)
	}
	b0, b1 := hyp.hyper.Borders[0], hyp.hyper.Borders[1]
	pr, err := set.Provider(HYP).QueryProof(b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(set.Verifier, HYP, b0, b1, pr); err == nil {
		t.Fatalf("a proof carrying an altered W*(%d, %d) client-verified", b0, b1)
	}
	rep, err := set.AuditCertificate(set.Verifier)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, cert.ErrDistance) {
		t.Fatalf("altered W*: audit gave %v, want ErrDistance", err)
	}

	// Full rows load as their trees, checked in one pass: a parent slot
	// past its node's degree, two non-borders each other's parent, and a
	// tree block cut short all fail the load as a bad section.
	owner, hyp = updatedHYPWorld(t, 100, 140)
	if c, err = owner.Certify(hyp); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := owner.WriteSnapshotCert(&buf, c, hyp); err != nil {
		t.Fatal(err)
	}
	if _, err := readSet(buf.Bytes()); err != nil {
		t.Fatalf("the intact full-row snapshot: %v", err)
	}
	net, pos := owner.Graph(), hyp.ads.ord.Pos
	x, y := innerNeighbours(t, hyp.hyper, net)
	for _, tc := range []struct {
		name, msg string
		edit      func(p []byte, tree int) []byte
	}{
		{"a parent slot past the degree", "parent slot", func(p []byte, tree int) []byte {
			binary.BigEndian.PutUint16(p[tree+2*pos[x]:], uint16(net.Degree(x)))
			return p
		}},
		{"a two-node parent cycle", "cycle", func(p []byte, tree int) []byte { return cyclicTree(p, tree, net, pos, x, y) }},
		{"a truncated tree block", "truncated", func(p []byte, tree int) []byte { return p[:tree+net.NumNodes()+1] }},
	} {
		bad := resealed(t, buf.Bytes(), func(p []byte) []byte {
			_, tree := hypSection(p)
			return tc.edit(p, tree)
		})
		if _, err := readSet(bad); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: %v, want a bad section (%s)", tc.name, err, tc.msg)
		}
	}

	// A loose tree — one node's parent moved to a neighbour whose edge is
	// not tight, no cycle closed — loads, since queries and proofs read
	// W*, never a tree, and folds to a value the audit rejects.
	set, err = readSet(resealed(t, buf.Bytes(), func(p []byte) []byte {
		_, tree := hypSection(p)
		return looseTree(t, p, tree, hyp.hyper, net, pos)
	}))
	if err != nil {
		t.Fatalf("a loose tree: %v, want a clean load", err)
	}
	if rep, err = set.AuditCertificate(set.Verifier); err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, cert.ErrDistance) {
		t.Fatalf("a loose tree: audit gave %v, want ErrDistance", err)
	}
}

// readSet is ReadProviderSet over data.
func readSet(data []byte) (*ProviderSet, error) {
	return ReadProviderSet(bytes.NewReader(data), int64(len(data)))
}

// updatedHYPWorld is a HYP provider patched through one update, so its
// rows are full.
func updatedHYPWorld(tb testing.TB, nodes, edges int) (*Owner, *HYPProvider) {
	tb.Helper()
	g, err := netgen.Synthesize(nodes, edges, 7)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cells = 9
	owner, err := NewOwner(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	hyp := outsource[*HYPProvider](tb, owner, HYP)
	e := owner.Graph().Neighbors(3)[0]
	batch, err := owner.ApplyUpdates([]EdgeUpdate{{U: 3, V: e.To, W: 2 * e.W}})
	if err != nil {
		tb.Fatal(err)
	}
	hyp, _ = patch(tb, batch, hyp)
	return owner, hyp
}

// resealed returns the snapshot data with the HYP section's payload passed
// through edit, written anew through the container writer: every section
// and index checksum holds, so only the payload's meaning is changed.
func resealed(tb testing.TB, data []byte, edit func(payload []byte) []byte) []byte {
	tb.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	w, err := snapshot.NewWriter(&out, f.Epoch())
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range f.Sections() {
		payload, err := f.Section(e.Kind)
		if err != nil {
			tb.Fatal(err)
		}
		if e.Kind == snapKindHYP {
			payload = edit(bytes.Clone(payload))
		}
		if err := w.Section(e.Kind, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// hypSection locates, in a HYP section payload (layout at
// hypImpl.StreamSnapshot), the first W* value and the first tree slot (of
// a full-row section).
func hypSection(payload []byte) (w, tree int) {
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(payload[off:])) }
	off := 4 + u32(0)   // netSig
	off += 4 + u32(off) // distSig
	off++               // full-rows flag
	borders := u32(off)
	return off + 4, off + 4 + 8*borders*borders
}

// innerNeighbours returns two neighbouring nodes of net, neither a border
// of hy: a parent cycle between them is one no border breaks.
func innerNeighbours(tb testing.TB, hy *hiti.Hyper, net *graph.CSR) (graph.NodeID, graph.NodeID) {
	tb.Helper()
	for x := graph.NodeID(0); int(x) < net.NumNodes(); x++ {
		for _, e := range net.Neighbors(x) {
			if !hy.IsBorder[x] && !hy.IsBorder[e.To] {
				return x, e.To
			}
		}
	}
	tb.Fatal("no two non-borders are neighbours")
	return 0, 0
}

// looseTree gives a non-border x of the first tree of a full-row HYP
// payload, whose tree slots start at tree, a parent y whose edge is not
// tight in that row and whose own chain does not pass x.
func looseTree(tb testing.TB, p []byte, tree int, hy *hiti.Hyper, net *graph.CSR, pos []int) []byte {
	tb.Helper()
	d := sp.NewWorkspace(net.NumNodes()).DijkstraRow(net, hy.Borders[0], nil)
	passes := func(y, x graph.NodeID) bool {
		for !hy.IsBorder[y] && y != x {
			k := binary.BigEndian.Uint16(p[tree+2*pos[y]:])
			if k == math.MaxUint16 {
				return false
			}
			y = net.Neighbors(y)[k].To
		}
		return y == x
	}
	for x := graph.NodeID(0); int(x) < net.NumNodes(); x++ {
		if hy.IsBorder[x] || d[x] == sp.Unreachable {
			continue
		}
		for k, e := range net.Neighbors(x) {
			if d[e.To] != sp.Unreachable && math.Abs(d[e.To]+e.W-d[x]) > 1e-6*(1+d[x]) && !passes(e.To, x) {
				binary.BigEndian.PutUint16(p[tree+2*pos[x]:], uint16(k))
				return p
			}
		}
	}
	tb.Fatal("no node of the first tree can take a loose parent")
	return nil
}

// cyclicTree makes x and y, neighbours in net, each other's parent in the
// first tree of a full-row HYP payload whose tree slots start at tree.
func cyclicTree(p []byte, tree int, net *graph.CSR, pos []int, x, y graph.NodeID) []byte {
	for _, e := range [][2]graph.NodeID{{x, y}, {y, x}} {
		k := slices.IndexFunc(net.Neighbors(e[0]), func(n graph.Edge) bool { return n.To == e[1] })
		binary.BigEndian.PutUint16(p[tree+2*pos[e[0]]:], uint16(k))
	}
	return p
}

// resection rewrites a snapshot through the container writer, emitting
// each section copies(kind) times and then the extra sections — a
// well-framed, correctly indexed file whose section list is wrong.
func resection(t *testing.T, data []byte, copies func(kind uint32) int, extra map[uint32][]byte) []byte {
	t.Helper()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := snapshot.NewWriter(&out, f.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	emit := func(kind uint32, payload []byte) {
		if err := w.Section(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range f.Sections() {
		payload, err := f.Section(e.Kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < copies(e.Kind); i++ {
			emit(e.Kind, payload)
		}
	}
	for kind, payload := range extra {
		emit(kind, payload)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSnapshotLoadRefusals pins what the one loader refuses, and when.
// Anything wrong with the section list — a duplicate, an unknown or a
// missing kind — and any other format version fail every open, lazy
// included. A byte flipped inside a method section's payload fails an
// eager load at load; a lazy open succeeds and the damaged method's first
// query fails instead.
func TestSnapshotLoadRefusals(t *testing.T) {
	owner, dij, _, ldm, _ := snapshotWorld(t, 100, 140)
	_, data := writeSnapshotFile(t, owner, dij, ldm)
	once := func(uint32) int { return 1 }

	v1, v2 := bytes.Clone(data), bytes.Clone(data)
	binary.BigEndian.PutUint32(v1[8:], 1)
	binary.BigEndian.PutUint32(v2[8:], 2)

	for _, c := range []struct {
		name string
		data []byte
		is   error
		msg  string
	}{
		{"version-1 header", v1, snapshot.ErrCorrupt, "unsupported version"},
		{"version-2 header", v2, snapshot.ErrCorrupt, "unsupported version 2"},
		{"duplicate section", resection(t, data, func(k uint32) int {
			if k == snapKindLDM {
				return 2
			}
			return 1
		}, nil), ErrBadSnapshot, "duplicate section kind 7"},
		{"unknown section", resection(t, data, once, map[uint32][]byte{77: []byte("?")}),
			ErrBadSnapshot, "unknown section kind 77"},
		{"missing core section", resection(t, data, func(k uint32) int {
			if k == snapKindOrdering {
				return 0
			}
			return 1
		}, nil), ErrBadSnapshot, "missing core sections"},
	} {
		if _, err := ReadProviderSet(bytes.NewReader(c.data), int64(len(c.data))); !errors.Is(err, c.is) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s, eager: %v", c.name, err)
		}
		f, err := snapshot.NewFile(bytes.NewReader(c.data), int64(len(c.data)))
		if err == nil {
			_, err = lazySetFromFile(f)
		}
		if !errors.Is(err, c.is) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s, lazy: %v", c.name, err)
		}
	}

	path := corruptSection(t, data, snapKindLDM)
	if _, err := OpenProviderSet(path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("flipped LDM payload byte, eager: %v", err)
	}
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatalf("flipped LDM payload byte, lazy open: %v", err)
	}
	defer set.Close()
	if _, err := set.Provider(DIJ).QueryProof(1, 50); err != nil {
		t.Errorf("intact DIJ section beside the damaged one: %v", err)
	}
	if _, err := set.Provider(LDM).QueryProof(1, 50); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("flipped LDM payload byte, first query: %v", err)
	}
}

// TestRestoreOwner pins the epoch restoration contract.
func TestRestoreOwner(t *testing.T) {
	owner, dij, _, _, _ := snapshotWorld(t, 100, 140)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, dij); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := set.RestoreOwner(owner.signer)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != set.Epoch {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), set.Epoch)
	}
	set.Epoch = -1
	if _, err := set.RestoreOwner(owner.signer); err == nil {
		t.Fatal("negative epoch accepted")
	}
}

// TestLazyRestoreUpdateVerifies is the regression pin for an owner resumed
// from a lazily opened snapshot: its first update batch must patch the
// loaded providers into ones whose proofs verify. A provider's lazily
// filled tuple table encodes from the provider's own network, so the patch
// sees the re-weighted endpoints as dirty leaves; were it to encode from
// the owner's post-update network, the patch would find nothing to rewrite
// and keep signing the pre-update root over post-update tuples.
func TestLazyRestoreUpdateVerifies(t *testing.T) {
	owner, dij, full, ldm, hyp := snapshotWorld(t, 220, 300)
	path, _ := writeSnapshotFile(t, owner, dij, full, ldm, hyp)
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	restored, err := set.RestoreOwner(owner.signer)
	if err != nil {
		t.Fatal(err)
	}
	e := restored.Graph().Neighbors(5)[0]
	batch, err := restored.ApplyUpdates([]EdgeUpdate{{U: 5, V: e.To, W: e.W * 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Every proof starts at the re-weighted edge's endpoint, so every proof
	// carries one of the tuples the update changed.
	var targets []graph.NodeID
	for vt := graph.NodeID(1); len(targets) < 32; vt += 6 {
		targets = append(targets, vt)
	}
	for _, m := range Methods() {
		p, st, err := batch.Patch(set.Provider(m))
		if err != nil {
			t.Fatalf("patch %s: %v", m, err)
		}
		if st.LeavesPatched == 0 {
			t.Errorf("%s: the update patched no network leaf", m)
		}
		rejected := 0
		for _, vt := range targets {
			pr, err := p.QueryProof(5, vt)
			if err != nil {
				t.Fatalf("%s query (5,%d): %v", m, vt, err)
			}
			if err := VerifyProof(set.Verifier, m, 5, vt, pr); err != nil {
				rejected++
			}
		}
		if rejected > 0 {
			t.Errorf("%s: %d of %d patched proofs rejected", m, rejected, len(targets))
		}
	}
}
