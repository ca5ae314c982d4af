package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sp"
	"github.com/authhints/spv/internal/workload"
)

// TestNoStaleAnswerSurvivesSwap holds the swap's invalidation to what each
// patch reports stale. Four methods serve a warmed key pool through a
// perturb/restore stream — single edges ×1.05 and back, one edge to 0 and
// back, a two-edge batch and back — and after every update each entry
// still cached must verify under the owner's verifier and carry the
// current shortest distance. The zeroed edge is one whose tuples a pool
// query's HYP proof does not show but which shortens that query, so only
// the hyper-edge entries the proof shows can tell it stale. Staleness
// comes from what a patch changed, so HYP must also keep cached entries
// across every update that moves no W* entry: only the proofs showing the
// re-weighted edge's tuples go.
func TestNoStaleAnswerSurvivesSwap(t *testing.T) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Landmarks = 5
	cfg.Cells = 64 // small cells keep HYP proofs' leaf spans narrow
	owner, err := core.NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	methods := []core.Method{core.DIJ, core.LDM, core.HYP, core.FULL}
	dep, err := NewDeployment(owner, Options{CacheBytes: 4 << 20}, methods...)
	if err != nil {
		t.Fatal(err)
	}
	engine := dep.Engine()
	qs, err := workload.Generate(g, 32, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		for _, m := range methods {
			for _, q := range qs {
				if _, err := engine.Query(Query{Method: m, VS: q.S, VT: q.T}); err != nil {
					t.Fatalf("%s %d→%d: %v", m, q.S, q.T, err)
				}
			}
		}
	}

	type edge struct {
		u, v graph.NodeID
		w    float64
	}
	net := owner.Graph()
	rng := rand.New(rand.NewSource(7))
	pick := func() edge {
		for {
			u := graph.NodeID(rng.Intn(net.NumNodes()))
			if adj := net.Neighbors(u); len(adj) > 0 {
				e := adj[rng.Intn(len(adj))]
				return edge{u, e.To, e.W}
			}
		}
	}
	// onPath is the middle edge of a pool query's shortest path: moving it
	// moves that query's answer under every method.
	onPath := func(q workload.Query) edge {
		_, path := sp.DijkstraTo(net, q.S, q.T)
		u, v := path[len(path)/2-1], path[len(path)/2]
		w, _ := net.EdgeWeight(u, v)
		return edge{u, v, w}
	}
	span := func(m core.Method, vs, vt graph.NodeID) (lo, hi uint32) {
		pr, err := dep.provs[m].QueryProof(vs, vt)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ = pr.LeafSpan()
		return lo, hi
	}
	// shortcut finds the edge to zero. A FULL proof for (u, v) shows a
	// path from u to v, so its span holds both endpoints' leaves.
	shortcut := func() edge {
		for _, q := range qs {
			lo, hi := span(core.HYP, q.S, q.T)
			fromS, _ := sp.DijkstraBounded(net, q.S, sp.Unreachable)
			fromT, _ := sp.DijkstraBounded(net, q.T, sp.Unreachable)
			ds, dt := fromS.Dist, fromT.Dist
			for u := range graph.NodeID(net.NumNodes()) {
				for _, e := range net.Neighbors(u) {
					if ds[u]+dt[e.To] >= ds[q.T]*(1-1e-6) {
						continue
					}
					if elo, ehi := span(core.FULL, u, e.To); ehi < lo || elo > hi {
						return edge{u, e.To, e.W}
					}
				}
			}
		}
		t.Fatal("no pool query has a shortcut its HYP proof does not show")
		return edge{}
	}
	set := func(f float64, es ...edge) []core.EdgeUpdate {
		var ups []core.EdgeUpdate
		for _, e := range es {
			ups = append(ups, core.EdgeUpdate{U: e.u, V: e.v, W: e.w * f})
		}
		return ups
	}
	var stream [][]core.EdgeUpdate
	for i := range 6 {
		e := pick()
		if i%2 == 1 {
			e = onPath(qs[i])
		}
		stream = append(stream, set(1.05, e), set(1, e))
	}
	zero := shortcut()
	stream = append(stream, set(0, zero), set(1, zero))
	a, b := pick(), onPath(qs[6])
	for a.u == b.u && a.v == b.v || a.u == b.v && a.v == b.u {
		a = pick()
	}
	stream = append(stream, set(1.05, a, b), set(1, a, b))

	wstar := func() []mbt.Entry {
		hy := wstarOf(t, owner.Graph(), cfg.Cells)
		return hy.AppendEntries(nil, 0, hy.NumHyperEdges())
	}
	sameBits := func(x, y mbt.Entry) bool { return math.Float64bits(x.Value) == math.Float64bits(y.Value) }
	verifier := owner.Verifier()
	quiet := 0
	warm()
	before := wstar()
	for i, ups := range stream {
		if _, err := dep.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
		engine.cache.mu.Lock()
		keys := make([]cacheKey, 0, len(engine.cache.items))
		for k := range engine.cache.items {
			keys = append(keys, k)
		}
		engine.cache.mu.Unlock()
		hyp := 0
		for _, k := range keys {
			a, err := engine.Query(Query{Method: k.m, VS: k.vs, VT: k.vt})
			if err != nil || !a.Cached {
				t.Fatalf("update %d: cached %s %d→%d: err %v, cached %v", i, k.m, k.vs, k.vt, err, a.Cached)
			}
			pr, _, err := core.DecodeProof(k.m, a.Proof)
			if err == nil {
				err = core.VerifyProof(verifier, k.m, k.vs, k.vt, pr)
			}
			if err != nil {
				t.Fatalf("update %d: cached %s %d→%d fails verification: %v", i, k.m, k.vs, k.vt, err)
			}
			_, got := pr.Result()
			want, _ := sp.DijkstraTo(owner.Graph(), k.vs, k.vt)
			if math.Abs(got-want) > 1e-9*(1+want) { // the client's distance tolerance
				t.Fatalf("update %d %v: cached %s %d→%d is stale: dist %v, now %v", i, ups, k.m, k.vs, k.vt, got, want)
			}
			if k.m == core.HYP {
				hyp++
			}
		}
		after := wstar()
		moved := !slices.EqualFunc(before, after, sameBits)
		if !moved {
			quiet++
			if hyp == 0 {
				t.Errorf("update %d moves no W* entry, but HYP kept no cached entry across it", i)
			}
		}
		t.Logf("update %d %v (W* moved: %v): %d entries kept, %d of them HYP's", i, ups, moved, len(keys), hyp)
		before = after
		warm()
	}
	if quiet == 0 {
		t.Error("no update in the stream leaves W* as it was")
	}
}

// wstarOf builds net's HiTi structure from scratch: its partition is the
// deployment's, and its W* bitwise the patched providers'.
func wstarOf(t *testing.T, net *graph.CSR, cells int) *hiti.Hyper {
	t.Helper()
	h, err := hiti.Build(net, cells)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
