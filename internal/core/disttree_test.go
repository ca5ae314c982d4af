package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// fullDistTree is the Merkle tree p's distance tree is the top of:
// mht.Build over the leaf digest of every hyper-edge entry p's Hyper
// holds.
func fullDistTree(t testing.TB, cfg Config, p *HYPProvider) *mht.Tree {
	t.Helper()
	hy := p.hyper
	var leaves, msg []byte
	for _, e := range hy.AppendEntries(nil, 0, hy.NumHyperEdges()) {
		msg = e.AppendBinary(msg[:0])
		leaves = cfg.Hash.AppendSum(leaves, msg)
	}
	mt, err := mht.Build(cfg.Hash, cfg.Fanout, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// checkDistTree holds p's distance tree, which stores only its top, to a
// whole tree built from scratch over the same entries: the root, every
// level byte as a snapshot writes it, and the hyper-edge proof of each
// cell pair, byte for byte.
func checkDistTree(t testing.TB, cfg Config, p *HYPProvider, pairs [][2]geom.CellID) {
	t.Helper()
	full, dt := fullDistTree(t, cfg, p), p.distMBT
	if !bytes.Equal(dt.Root(), full.Root()) {
		t.Fatal("distance root differs from a from-scratch build")
	}
	got := make([][]byte, len(full.Levels()))
	dt.EachLevel(func(l int, b []byte) { got[l] = append(got[l], b...) })
	for l, want := range full.Levels() {
		if !bytes.Equal(got[l], want) {
			t.Fatalf("distance tree level %d differs from a from-scratch build", l)
		}
	}
	var s mht.ProveScratch
	for _, c := range pairs {
		edges := p.hyper.CellPairEntries(c[0], c[1])
		if len(edges) == 0 {
			continue
		}
		got, err := dt.Prove(&s, edges)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, len(edges))
		for i, e := range edges {
			idx[i] = int(e.Index)
		}
		mp, err := full.Prove(idx)
		if err != nil {
			t.Fatal(err)
		}
		want := (&mbt.Proof{Entries: edges, MHT: mp}).AppendBinary(nil)
		if !bytes.Equal(got.AppendBinary(nil), want) {
			t.Fatalf("cells (%d, %d): hyper-edge proof differs from a from-scratch build's", c[0], c[1])
		}
	}
}

// queryCells returns the cell pairs of count queries of the benchmark's
// shape — range 4000 — on p's network.
func queryCells(t testing.TB, p *HYPProvider, count int) [][2]geom.CellID {
	t.Helper()
	qs, err := workload.Generate(p.view, count, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]geom.CellID, len(qs))
	for i, q := range qs {
		out[i] = [2]geom.CellID{p.hyper.CellOf[q.S], p.hyper.CellOf[q.T]}
	}
	return out
}

// TestDistTreeMatchesFullBuild: HYP's distance tree, which keeps only the
// levels whose nodes cover about mbt.GroupLeaves leaves, is the whole tree
// to every reader — for every cell pair of a small world, and for 512
// benchmark-range queries on the benchmark world.
func TestDistTreeMatchesFullBuild(t *testing.T) {
	g, err := netgen.Synthesize(1500, 1650, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hyp := outsource[*HYPProvider](t, owner, HYP)
	cells := map[geom.CellID]bool{}
	for _, b := range hyp.hyper.Borders {
		cells[hyp.hyper.CellOf[b]] = true
	}
	var pairs [][2]geom.CellID
	for cs := range cells {
		for ct := range cells {
			pairs = append(pairs, [2]geom.CellID{cs, ct})
		}
	}
	checkDistTree(t, owner.cfg, hyp, pairs)
	t.Logf("small world: %d cell pairs over %d leaves", len(pairs), hyp.distMBT.Len())

	if testing.Short() {
		t.Skip("the benchmark world")
	}
	bg, _ := updateStream(t, 0)
	bowner, err := NewOwner(bg, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bhyp := outsource[*HYPProvider](t, bowner, HYP)
	checkDistTree(t, bowner.cfg, bhyp, queryCells(t, bhyp, 512))
	stored, widths := 0, bhyp.distMBT.Widths()
	for _, w := range widths[mbt.Cut(widths[0], bowner.cfg.Fanout):] {
		stored += w * bowner.cfg.Hash.Size()
	}
	t.Logf("benchmark world: %d leaves, G = %d, %d stored bytes", bhyp.distMBT.Len(), mbt.GroupLeaves, stored)
}

// resealed returns the snapshot data with the HYP section's payload passed
// through edit, written anew through the container writer: every section
// and index checksum holds, so only the payload's meaning is changed.
func resealed(t *testing.T, data []byte, edit func(payload []byte)) []byte {
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
	for _, e := range f.Sections() {
		payload, err := f.Section(e.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind == snapKindHYP {
			edit(payload)
		}
		if err := w.Section(e.Kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// hypSectionAt locates, in a HYP section payload (layout at
// hypImpl.StreamSnapshot), the first stored W* value and the digests of
// each distance-tree level: where they start and how many bytes they take.
func hypSectionAt(payload []byte) (rows int, levels [][2]int) {
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(payload[off:])) }
	off := 4 + u32(0)   // netSig
	off += 4 + u32(off) // distSig
	off++               // full-rows flag
	numRows, rowLen := u32(off), u32(off+4)
	rows = off + 8
	off = rows + 8*numRows*rowLen + 1 // rows, dist-tree flag
	size := digest.Alg(payload[off]).Size()
	off += 1 + 2 // alg, fanout
	numLevels := u32(off)
	off += 4
	for range numLevels {
		w := u32(off)
		levels = append(levels, [2]int{off + 4, w * size})
		off += 4 + w*size
	}
	return rows, levels
}

// TestDistTreeLowerLevelsNeverReachAProof pins the contract for the
// distance-tree levels a snapshot stores below mbt.Cut: they are written
// for the file's sake alone. Altered there, with the section checksum
// re-sealed, a snapshot still loads, serves the very proofs the origin
// serves — which client-verify — and passes the certificate audit,
// because the replica reads past those bytes and re-hashes the groups from
// W*. A W* value altered in the same section is caught: the audit rejects
// the stored row (ErrDistance), and a proof carrying the entry fails
// client verification.
func TestDistTreeLowerLevelsNeverReachAProof(t *testing.T) {
	g, err := netgen.Synthesize(1500, 1650, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hyp := outsource[*HYPProvider](t, owner, HYP)
	c, err := owner.Certify(hyp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshotCert(&buf, c, hyp); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cut := mbt.Cut(hyp.distMBT.Len(), owner.cfg.Fanout)
	if cut == 0 {
		t.Fatal("the distance tree stores every level")
	}
	open := func(data []byte) *ProviderSet {
		t.Helper()
		path := filepath.Join(t.TempDir(), "world.spv")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		set, err := OpenProviderSetLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		return set
	}
	serve := func(set *ProviderSet, vs, vt graph.NodeID) ([]byte, error) {
		t.Helper()
		pr, err := set.Provider(HYP).QueryProof(vs, vt)
		if err != nil {
			t.Fatal(err)
		}
		wire := pr.AppendBinary(nil)
		back, _, err := DecodeProof(HYP, wire)
		if err != nil {
			t.Fatal(err)
		}
		return wire, VerifyProof(set.Verifier, HYP, vs, vt, back)
	}

	lower := resealed(t, data, func(p []byte) {
		_, levels := hypSectionAt(p)
		for _, lv := range levels[:cut] {
			for i := lv[0]; i < lv[0]+lv[1]; i += 7 {
				p[i] ^= 0xa5
			}
		}
	})
	set := open(lower)
	qs, err := workload.Generate(owner.Graph(), 32, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want, err := hyp.QueryProof(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serve(set, q.S, q.T)
		if err != nil {
			t.Fatalf("%d→%d: altered lower levels broke a proof: %v", q.S, q.T, err)
		}
		if !bytes.Equal(got, want.AppendBinary(nil)) {
			t.Fatalf("%d→%d: the replica's proof differs from the origin's", q.S, q.T)
		}
	}
	if rep, err := set.AuditCertificate(set.Verifier); err != nil || rep.Err() != nil {
		t.Fatalf("altered lower levels failed the audit: %v %v", err, rep.Err())
	}

	// W*(B0, B1) lives at column 1 of row 0, the lower-ID border's row.
	hy := hyp.hyper
	b0, b1 := hy.Borders[0], hy.Borders[1]
	wstar := resealed(t, data, func(p []byte) {
		rows, _ := hypSectionAt(p)
		p[rows+8*1+7] ^= 0x01
	})
	set = open(wstar)
	if _, err := serve(set, b0, b1); err == nil {
		t.Fatalf("a proof carrying an altered W*(%d, %d) client-verified", b0, b1)
	}
	rep, err := set.AuditCertificate(set.Verifier)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, cert.ErrDistance) && !errors.Is(err, cert.ErrRowDigest) {
		t.Fatalf("altered W*: audit gave %v, want ErrDistance or ErrRowDigest", err)
	}
}
