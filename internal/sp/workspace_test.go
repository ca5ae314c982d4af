package sp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// randomWorkspaceGraph builds a connected random graph for equivalence
// tests.
func randomWorkspaceGraph(t *testing.T, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), 1+rng.Float64()*10)
	}
	for i := 0; i < extra; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*10)
		}
	}
	return g
}

// TestWorkspaceMatchesFreshSearch pins the tentpole invariant: a reused
// workspace over the frozen CSR produces exactly the same distances, paths
// and settle order as the one-shot package functions over the mutable
// graph — across many consecutive queries on one workspace (epoch reuse)
// and across graph forms.
func TestWorkspaceMatchesFreshSearch(t *testing.T) {
	g := randomWorkspaceGraph(t, 300, 260, 42)
	view := g.Freeze()
	w := NewWorkspace(view.NumNodes())
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 50; i++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))

		wantD, wantP := DijkstraTo(g, src, dst)
		gotD, gotP := w.DijkstraTo(view, src, dst)
		if wantD != gotD {
			t.Fatalf("query %d: dist %g vs %g", i, gotD, wantD)
		}
		if len(wantP) != len(gotP) {
			t.Fatalf("query %d: path len %d vs %d", i, len(gotP), len(wantP))
		}
		for j := range wantP {
			if wantP[j] != gotP[j] {
				t.Fatalf("query %d: path[%d] = %d vs %d", i, j, gotP[j], wantP[j])
			}
		}

		bound := wantD * 1.2
		tree, wantSettled := DijkstraBounded(g, src, bound)
		gotSettled := w.DijkstraBounded(view, src, bound)
		if len(wantSettled) != len(gotSettled) {
			t.Fatalf("query %d: settled %d vs %d nodes", i, len(gotSettled), len(wantSettled))
		}
		for j, v := range wantSettled {
			if gotSettled[j] != v {
				t.Fatalf("query %d: settle order diverges at %d: %d vs %d", i, j, gotSettled[j], v)
			}
			if tree.Dist[v] != w.DistOf(v) {
				t.Fatalf("query %d: settled dist of %d: %g vs %g", i, v, w.DistOf(v), tree.Dist[v])
			}
		}
		// Unsettled nodes must read as Unreachable even though the
		// workspace holds tentative frontier labels internally.
		for v := 0; v < g.NumNodes(); v++ {
			if tree.Dist[v] == Unreachable && w.DistOf(graph.NodeID(v)) != Unreachable {
				t.Fatalf("query %d: tentative label of %d leaked as settled", i, v)
			}
		}
	}
}

// TestWorkspaceRow checks full-row extraction, including row reuse.
func TestWorkspaceRow(t *testing.T) {
	g := randomWorkspaceGraph(t, 120, 60, 9)
	view := g.Freeze()
	w := NewWorkspace(view.NumNodes())
	var row []float64
	for i := 0; i < 5; i++ {
		src := graph.NodeID(i * 7 % g.NumNodes())
		want, _ := DijkstraBounded(g, src, Unreachable) // the heap search
		row = w.DijkstraRow(view, src, row)
		for v := range row {
			if row[v] != want.Dist[v] {
				t.Fatalf("row[%d] = %g, want %g", v, row[v], want.Dist[v])
			}
		}
	}
}

// TestWorkspaceEpochWrap forces the uint32 epoch to wrap and checks that
// labels from the pre-wrap era cannot leak into post-wrap searches.
func TestWorkspaceEpochWrap(t *testing.T) {
	g := randomWorkspaceGraph(t, 50, 30, 21)
	w := NewWorkspace(g.NumNodes())
	d1, p1 := w.DijkstraTo(g, 0, 40)

	w.epoch = math.MaxUint32 - 1 // two searches to wrap
	if d, _ := w.DijkstraTo(g, 0, 40); d != d1 {
		t.Fatalf("pre-wrap dist %g, want %g", d, d1)
	}
	d2, p2 := w.DijkstraTo(g, 0, 40) // epoch wraps to 0 → full clear → 1
	if w.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", w.epoch)
	}
	if d2 != d1 || len(p2) != len(p1) {
		t.Fatalf("post-wrap result (%g, %d hops) differs from (%g, %d hops)", d2, len(p2), d1, len(p1))
	}
}

// TestWorkspaceGrowAcrossGraphs reuses one pooled workspace across graphs
// of different sizes, the serving-layer pattern.
func TestWorkspaceGrowAcrossGraphs(t *testing.T) {
	small := randomWorkspaceGraph(t, 30, 10, 1)
	big := randomWorkspaceGraph(t, 400, 300, 2)
	w := AcquireWorkspace(small.NumNodes())
	defer ReleaseWorkspace(w)
	for i := 0; i < 3; i++ {
		for _, g := range []*graph.Graph{small, big} {
			want, _ := DijkstraTo(g, 0, graph.NodeID(g.NumNodes()-1))
			got, _ := w.DijkstraTo(g, 0, graph.NodeID(g.NumNodes()-1))
			if got != want {
				t.Fatalf("iteration %d on %d nodes: %g, want %g", i, g.NumNodes(), got, want)
			}
		}
	}
}
