package core

import (
	"bytes"
	"testing"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/netgen"
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
// stored level byte, and the hyper-edge proof of each cell pair — which
// carries digests of the levels below — byte for byte.
func checkDistTree(t testing.TB, cfg Config, p *HYPProvider, pairs [][2]geom.CellID) {
	t.Helper()
	full, dt := fullDistTree(t, cfg, p), p.distMBT
	if !bytes.Equal(dt.Root(), full.Root()) {
		t.Fatal("distance root differs from a from-scratch build")
	}
	all, got := full.Levels(), dt.Stored().Levels()
	cut := len(all) - len(got)
	for l, want := range all[cut:] {
		if !bytes.Equal(got[l], want) {
			t.Fatalf("distance tree level %d differs from a from-scratch build", cut+l)
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
	stored := 0
	for _, lvl := range bhyp.distMBT.Stored().Levels() {
		stored += len(lvl)
	}
	t.Logf("benchmark world: %d leaves, G = %d, %d stored bytes", bhyp.distMBT.Len(), mbt.GroupLeaves, stored)
}
