package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
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
// allocates one full row set — tree pages plus W* pages — each patch
// allocates at most 25 % of its bytes (0–20.6 % measured; the 8-byte value
// pages this form replaced took 1.7–10.8 % of a set three times the size,
// so in bytes the bound is tighter than their 15 %); no patch changes a
// proof or a row the providers before it serve, so no write lands on a
// shared page; and at the end the final Hyper and its distance tree hold
// 0.9–1.1 row sets of heap plus the tree's stored levels — a replaced page
// is freed, not pinned by its old neighbours, and the final rows are not
// pinned from anywhere else. Along the
// way it holds each patch's stale list to what the patch changed: both
// borders of every hyper-edge entry whose W* value moved are in Stale, an
// update that moves no entry reports only its rewritten tuples, and an
// LDM landmark row no update moved stays the very slice it was.
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

	// One row set: a 2-byte parent per node and B W* values per border,
	// both paged.
	b := p0.hyper.NumBorders()
	pages := func(n, per int) int { return (n + per - 1) / per * per }
	rowSet := b*pages(n, hiti.PageLen)*2 + b*pages(b, hiti.WPageLen)*8
	first := wires(p0)
	prev, prevWires := p0, first
	for k, up := range ups[:16] {
		batch, err := owner.ApplyUpdates([]EdgeUpdate{up})
		if err != nil {
			t.Fatal(err)
		}
		var prevRows [][]float64
		if k > 0 {
			for i := range prev.hyper.Borders {
				prevRows = append(prevRows, storedRow(prev.hyper, i))
			}
		}
		next, st := patch(t, batch, prev)
		switch {
		case k == 0 && st.RowBytesWritten != rowSet:
			t.Errorf("the upgrade allocated %d row bytes, want the full row set of %d", st.RowBytesWritten, rowSet)
		case k > 0 && st.RowBytesWritten*100 > rowSet*25:
			t.Errorf("update %d allocated %d of %d row bytes (%.1f %%), want ≤ 25 %%",
				k, st.RowBytesWritten, rowSet, 100*float64(st.RowBytesWritten)/float64(rowSet))
		}
		t.Logf("update %d (%d→%d): %d row bytes (%.1f %%), %d rows moved, %d nodes re-settled, %d entries moved",
			k, up.U, up.V, st.RowBytesWritten, 100*float64(st.RowBytesWritten)/float64(rowSet),
			st.RowsRecomputed, st.NodesResettled, st.DistLeavesPatched)
		if k > 0 {
			for i, row := range prevRows {
				if !slices.Equal(row, storedRow(prev.hyper, i)) {
					t.Fatalf("patching update %d changed row %d of the provider before it", k, i)
				}
			}
		}
		pos := prev.ads.ord.Pos
		stale := func(v graph.NodeID) bool { _, ok := slices.BinarySearch(st.Stale, pos[v]); return ok }
		borders := prev.hyper.Borders
		for i, u := range borders {
			for _, v := range borders[i+1:] {
				before, _ := prev.hyper.HyperEdge(u, v)
				after, _ := next.hyper.HyperEdge(u, v)
				if math.Float64bits(before) != math.Float64bits(after) && !(stale(u) && stale(v)) {
					t.Errorf("update %d moved W*(%d, %d), but Stale misses a border of it", k, u, v)
				}
			}
		}
		if st.DistLeavesPatched == 0 {
			var rewritten []int
			for _, v := range batch.DirtyNodes() {
				if !bytes.Equal(prev.ads.msg(pos[v]), next.ads.msg(pos[v])) {
					rewritten = append(rewritten, pos[v])
				}
			}
			slices.Sort(rewritten)
			if !slices.Equal(st.Stale, rewritten) {
				t.Errorf("update %d moved no entry, but Stale is %v, not its rewritten tuples %v", k, st.Stale, rewritten)
			}
		}
		nextLDM, _ := patch(t, batch, ldm)
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
	// The distance tree reads its entries from that Hyper, so it goes too,
	// and with it the stored levels its last patch copied.
	stored := 0
	for _, lvl := range prev.distMBT.Stored().Levels() {
		stored += len(lvl)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the row scratch pools' victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	prev.hyper, prev.distMBT = nil, nil
	retained := int64(with) - int64(heap())
	// Only the Hyper and its tree may go: p0 shares the partition they
	// point at, and the rest of the final provider (its network tree)
	// stays.
	runtime.KeepAlive(p0)
	runtime.KeepAlive(prev)
	runtime.KeepAlive(ldm)
	lo, hi := int64(rowSet)*9/10, int64(rowSet)*11/10+int64(stored)
	t.Logf("dropping the final Hyper and its tree frees %d bytes: %d of rows, %d of stored tree levels", retained, rowSet, stored)
	if retained < lo || retained > hi {
		t.Errorf("the final rows and tree retain %d bytes, want %d–%d (0.9–1.1 row sets of %d B, plus %d B of stored tree levels)",
			retained, lo, hi, rowSet, stored)
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
	var rowBytes int
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
			rowBytes += st.RowBytesWritten
		}
	}
	apply(ups[0])
	rowBytes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(ups[1+i%(len(ups)-1)])
	}
	b.ReportMetric(float64(rowBytes)/float64(b.N), "row-B/op")
}

// storedRow is row i as hy stores it, in hiti.Hyper.WalkRow's order: a
// full row's value at every node, or a static row's W*.
func storedRow(hy *hiti.Hyper, i int) []float64 {
	var row []float64
	hy.WalkRow(i, func(_ graph.NodeID, d float64) error {
		row = append(row, d)
		return nil
	})
	return row
}

// BenchmarkHYPBuild measures hiti.Build on the benchmark world: the
// partition, then one full search per border, W* its distances at the
// borders — the searches BenchmarkFullRowUpgrade runs too.
func BenchmarkHYPBuild(b *testing.B) {
	g, _ := updateStream(b, 0)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hiti.Build(owner.Graph(), owner.cfg.Cells); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRowUpgrade measures HYP's one-time static → full-row
// upgrade (hiti.Hyper.Updated on a static Hyper), which the first update
// of a deployment pays on its critical path, on the benchmark world: one
// search per border, the same searches hiti.Build runs, each row's tree
// its search's parents.
func BenchmarkFullRowUpgrade(b *testing.B) {
	g, _ := updateStream(b, 0)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hyp := outsource[*HYPProvider](b, owner, HYP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := hyp.hyper.Updated(owner.Graph(), hyp.ads.ord, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertify measures Owner.Certify for DIJ, LDM and HYP on the
// benchmark world, as an origin booting with -save issues it: one full
// search per certified source (DIJ's one, LDM's landmarks, HYP's borders),
// each row's parent slots written and digested in its slot, then the
// signature.
func BenchmarkCertify(b *testing.B) {
	g, _ := updateStream(b, 0)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	provs := []Provider{
		outsource[*DIJProvider](b, owner, DIJ),
		outsource[*LDMProvider](b, owner, LDM),
		outsource[*HYPProvider](b, owner, HYP),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.Certify(provs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditCertificate measures the audit an -audit-on-load replica of
// the benchmark world runs: the DIJ, LDM and HYP certificate streamed from
// its snapshot file's CERT section through ProviderSet.AuditCertificate, on
// a lazily opened set whose sections are already hydrated.
func BenchmarkAuditCertificate(b *testing.B) {
	g, _ := updateStream(b, 0)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	provs := []Provider{
		outsource[*DIJProvider](b, owner, DIJ),
		outsource[*LDMProvider](b, owner, LDM),
		outsource[*HYPProvider](b, owner, HYP),
	}
	c, err := owner.Certify(provs...)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "world.spv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := owner.WriteSnapshotCert(f, c, provs...); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	set.Warm()
	b.SetBytes(int64(len(c.Bytes())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := set.AuditCertificate(set.Verifier)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUpdateStreamRowsExact holds HYP's row store to a from-scratch build
// across the whole churn stream — 16 perturbing updates and the 16 that
// restore them: after each patch, every border's stored row, folded from
// its tree, is bitwise a fresh DijkstraRow on the owner's current network,
// W* bitwise those rows' border values, and the distance tree the whole
// tree over them (checkDistTree, on 512 benchmark-range queries). Every
// eighth update W* is also held to hiti.Build there, which runs the same
// full border searches (hiti's checkExact pins that on every repair it
// tests), so the full W* rebuild is not paid 32 times.
func TestUpdateStreamRowsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("32 row sets of fresh searches on the benchmark world")
	}
	g, ups := updateStream(t, 16)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hyp := outsource[*HYPProvider](t, owner, HYP)
	pairs := queryCells(t, hyp, 512)
	same := func(a, b []mbt.Entry) bool {
		return slices.EqualFunc(a, b, func(x, y mbt.Entry) bool {
			return x.Key == y.Key && math.Float64bits(x.Value) == math.Float64bits(y.Value)
		})
	}
	for k, up := range ups {
		batch, err := owner.ApplyUpdates([]EdgeUpdate{up})
		if err != nil {
			t.Fatal(err)
		}
		hyp, _ = patch(t, batch, hyp)
		checkDistTree(t, owner.cfg, hyp, pairs)
		net, hy := owner.Graph(), hyp.hyper
		bad := make([]string, len(hy.Borders))
		wstar := make([][]float64, len(hy.Borders)) // border-indexed
		par.Work(len(hy.Borders), func(i int) {
			ws := sp.AcquireWorkspace(net.NumNodes())
			defer sp.ReleaseWorkspace(ws)
			want := ws.DijkstraRow(net, hy.Borders[i], nil)
			for x, d := range storedRow(hy, i) {
				if math.Float64bits(d) != math.Float64bits(want[x]) {
					bad[i] = fmt.Sprintf("row %d holds %v at node %d, a fresh search gives %v", i, d, x, want[x])
					return
				}
			}
			wstar[i] = make([]float64, len(hy.Borders))
			for j, b := range hy.Borders {
				wstar[i][j] = want[b]
			}
		})
		for _, msg := range bad {
			if msg != "" {
				t.Fatalf("update %d (%d→%d): %s", k, up.U, up.V, msg)
			}
		}
		entries := hy.AppendEntries(nil, 0, hy.NumHyperEdges())
		for i, u := range hy.Borders {
			for j, v := range hy.Borders[i:] {
				if e := entries[hy.LeafIndex(u, v)]; math.Float64bits(e.Value) != math.Float64bits(wstar[i][i+j]) {
					t.Fatalf("update %d (%d→%d): W*(%d, %d) = %v, a fresh search gives %v", k, up.U, up.V, u, v, e.Value, wstar[i][i+j])
				}
			}
		}
		if k%8 == 7 {
			fresh, err := hiti.Build(net, owner.cfg.Cells)
			if err != nil {
				t.Fatal(err)
			}
			if !same(entries, fresh.AppendEntries(nil, 0, fresh.NumHyperEdges())) {
				t.Fatalf("update %d (%d→%d): W* differs from hiti.Build on the updated network", k, up.U, up.V)
			}
		}
	}
}

// liveHeap returns the heap in use once collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle empties the scratch pools' victims
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestUpdateStreamLiveHeap guards what an update-serving deployment keeps
// live: after the churn stream's 32 updates, the owner, its network and
// the final DIJ, LDM and HYP providers hold at most 23 MB of heap once
// collected. HYP's full rows as 8-byte values held 52.0 MB here; as trees
// 27.5 MB; with HYP's distance tree keeping only its top levels 19.7 MB.
// The race detector's shadow state would count against the bound, so it
// skips under -race.
func TestUpdateStreamLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	g, ups := updateStream(t, 16)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g = nil // the owner froze its own copy
	provs := []Provider{
		outsource[*DIJProvider](t, owner, DIJ),
		outsource[*LDMProvider](t, owner, LDM),
		outsource[*HYPProvider](t, owner, HYP),
	}
	for _, up := range ups {
		batch, err := owner.ApplyUpdates([]EdgeUpdate{up})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range provs {
			if provs[i], _, err = batch.Patch(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	with := liveHeap()
	runtime.KeepAlive(owner)
	runtime.KeepAlive(provs)
	owner, provs = nil, nil
	held := int64(with) - int64(liveHeap())
	t.Logf("the owner and its DIJ, LDM and HYP providers hold %.1f MB after %d updates", float64(held)/1e6, len(ups))
	const limit = 23e6
	if held > limit {
		t.Errorf("the owner and its providers hold %d B of live heap after the stream, want ≤ %d", held, int64(limit))
	}
}

// TestReplicaLiveHeap is its replica counterpart: a lazily opened snapshot
// of the benchmark world's DIJ, LDM and HYP providers, every section
// hydrated, holds at most 9.2 MB of heap once collected — the network,
// its ordering and the three providers: 8.0 MB measured, 15.7 MB while
// HYP's distance tree kept every level.
func TestReplicaLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	g, _ := updateStream(t, 0)
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path, _ := writeSnapshotFile(t, owner,
		outsource[*DIJProvider](t, owner, DIJ),
		outsource[*LDMProvider](t, owner, LDM),
		outsource[*HYPProvider](t, owner, HYP))
	g, owner = nil, nil
	before := liveHeap()
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, m := range []Method{DIJ, LDM, HYP} {
		if _, err := unwrapProvider(set.Provider(m)); err != nil {
			t.Fatal(err)
		}
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(set)
	t.Logf("a hydrated DIJ+LDM+HYP replica holds %.1f MB", float64(held)/1e6)
	const limit = 9.2e6
	if held > limit {
		t.Errorf("the replica holds %d B of live heap, want ≤ %d", held, int64(limit))
	}
}
