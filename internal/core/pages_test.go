package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/netgen"
)

// updateStream returns the repository benchmark's world — DE at scale 0.25,
// seed 1, spvserve's defaults there — and its churn update stream: the
// count perturb batches of loadgen.PerturbBatches(g, count, 1, 1) followed
// by the count batches restoring them, one edge each. It is rebuilt here
// because loadgen imports core; the sampling is the same draw for draw.
func updateStream(tb testing.TB, count int) (*graph.Graph, []EdgeUpdate) {
	tb.Helper()
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.25, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[[2]graph.NodeID]bool, count)
	ups := make([]EdgeUpdate, 0, 2*count)
	for len(ups) < count {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		e := adj[rng.Intn(len(adj))]
		key := [2]graph.NodeID{min(u, e.To), max(u, e.To)}
		if seen[key] {
			continue
		}
		seen[key] = true
		ups = append(ups, EdgeUpdate{U: u, V: e.To, W: e.W * 1.05})
	}
	for _, up := range ups[:count] {
		w, _ := g.EdgeWeight(up.U, up.V)
		ups = append(ups, EdgeUpdate{U: up.U, V: up.V, W: w})
	}
	return g, ups
}

// TestUpdateStreamSharesPages pins HYP's copy-on-write rows on the churn
// stream's 16 perturbing updates: after the first update's upgrade
// allocates one full row set, each patch allocates at most 15 % of its
// pages (leaf-order paging measured 1.8–10.8 %, node-ID order up to 78 %);
// no patch changes a proof the providers before it serve, so no write
// lands on a shared page; and at the end the rows hold at most 1.1 row
// sets of heap — a replaced page is freed, not pinned by its old
// neighbours. Along the way it holds row repair to the invalidation policy
// the probes set: every border whose row changed bitwise is in the patch's
// StaleCover, and an LDM landmark row no update moved stays the very slice
// it was.
func TestUpdateStreamSharesPages(t *testing.T) {
	g, ups := updateStream(t, 16)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p0 := outsource[*HYPProvider](t, owner, HYP)
	ldm := outsource[*LDMProvider](t, owner, LDM)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]graph.NodeID, 24)
	for i := range pairs {
		vs, vt := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		for vt == vs {
			vt = graph.NodeID(rng.Intn(n))
		}
		pairs[i] = [2]graph.NodeID{vs, vt}
	}
	wires := func(p Provider) [][]byte {
		out := make([][]byte, len(pairs))
		for i, q := range pairs {
			out[i] = prove[Proof](t, p, q[0], q[1]).AppendBinary(nil)
		}
		return out
	}
	same := func(a, b [][]byte) bool {
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}

	rowSet := p0.hyper.NumBorders() * ((n + hiti.PageLen - 1) / hiti.PageLen)
	first := wires(p0)
	prev, prevWires := p0, first
	for k, up := range ups[:16] {
		b, err := owner.ApplyUpdates([]EdgeUpdate{up})
		if err != nil {
			t.Fatal(err)
		}
		next, st := patch(t, b, prev)
		switch {
		case k == 0 && st.RowPagesWritten != rowSet:
			t.Errorf("the upgrade allocated %d pages, want the full row set of %d", st.RowPagesWritten, rowSet)
		case k > 0 && st.RowPagesWritten*100 > rowSet*15:
			t.Errorf("update %d allocated %d of %d row pages (%.1f %%), want ≤ 15 %%",
				k, st.RowPagesWritten, rowSet, 100*float64(st.RowPagesWritten)/float64(rowSet))
		}
		t.Logf("update %d (%d→%d): %d pages (%.1f %%), %d rows rewritten, %d nodes re-settled, %d entries moved",
			k, up.U, up.V, st.RowPagesWritten, 100*float64(st.RowPagesWritten)/float64(rowSet),
			st.RowsRecomputed, st.NodesResettled, st.DistLeavesPatched)
		if k > 0 {
			stale := make(map[int]bool, len(st.StaleCover))
			for _, pos := range st.StaleCover {
				stale[pos] = true
			}
			for i, bn := range prev.hyper.Borders {
				if !slices.Equal(prev.hyper.AppendRow(nil, i), next.hyper.AppendRow(nil, i)) && !stale[prev.ads.ord.Pos[bn]] {
					t.Errorf("update %d changed border %d's row, but its leaf is not in the stale cover", k, bn)
				}
			}
		}
		nextLDM, _ := patch(t, b, ldm)
		for i, row := range ldm.hints.Dists {
			if nrow := nextLDM.hints.Dists[i]; slices.Equal(row, nrow) && &row[0] != &nrow[0] {
				t.Errorf("update %d copied landmark row %d though no value moved", k, i)
			}
		}
		ldm = nextLDM
		if !same(wires(p0), first) || !same(wires(prev), prevWires) {
			t.Fatalf("patching update %d changed a proof an earlier provider serves", k)
		}
		prev, prevWires = next, wires(next)
	}

	// Every row page the final provider holds is its own once the providers
	// in between are gone; dropping its Hyper must free about one row set.
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the row scratch pools' victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	prev.hyper = nil
	retained := int64(with) - int64(heap())
	// Only the Hyper may go: p0 shares the partition it points at, and the
	// rest of the final provider (its trees) stays.
	runtime.KeepAlive(p0)
	runtime.KeepAlive(prev)
	runtime.KeepAlive(ldm)
	if limit := int64(rowSet) * hiti.PageLen * 8 * 11 / 10; retained > limit {
		t.Errorf("the final rows retain %d bytes, want ≤ %d (1.1 × %d pages)", retained, limit, rowSet)
	}
}

// BenchmarkUpdateStream measures one applied churn update — ApplyUpdates
// plus the DIJ, LDM and HYP patches the serving daemon runs — cycling the
// benchmark world's perturb/restore stream. The first update, which pays
// HYP's one-time full-row upgrade, runs before the timer.
func BenchmarkUpdateStream(b *testing.B) {
	g, ups := updateStream(b, 16)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	provs := []Provider{
		outsource[*DIJProvider](b, owner, DIJ),
		outsource[*LDMProvider](b, owner, LDM),
		outsource[*HYPProvider](b, owner, HYP),
	}
	var pages int
	apply := func(up EdgeUpdate) {
		batch, err := owner.ApplyUpdates([]EdgeUpdate{up})
		if err != nil {
			b.Fatal(err)
		}
		for i, p := range provs {
			np, st, err := batch.Patch(p)
			if err != nil {
				b.Fatal(err)
			}
			provs[i] = np
			pages += st.RowPagesWritten
		}
	}
	apply(ups[0])
	pages = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(ups[1+i%(len(ups)-1)])
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}
