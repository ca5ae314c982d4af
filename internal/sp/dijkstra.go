package sp

import (
	"math"

	"github.com/authhints/spv/internal/graph"
)

// Unreachable is the distance reported for nodes not reachable from the
// source.
const Unreachable = math.MaxFloat64

// Tree is a shortest path tree rooted at Source: Dist[v] is the shortest
// path distance from Source to v (Unreachable if none) and Parent[v] is v's
// predecessor on that path (graph.Invalid for the source and unreachable
// nodes).
type Tree struct {
	Source graph.NodeID
	Dist   []float64
	Parent []graph.NodeID
}

// PathTo reconstructs the shortest path from the tree's source to v, or nil
// if v is unreachable.
func (t *Tree) PathTo(v graph.NodeID) graph.Path {
	if t.Dist[v] == Unreachable {
		return nil
	}
	var rev graph.Path
	for u := v; u != graph.Invalid; u = t.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// The package-level search functions below are convenience wrappers that
// run on a pooled Workspace and materialize caller-owned results. Hot paths
// that issue many searches (providers, hint construction) should hold a
// Workspace and call its methods directly, which reuses all per-search
// state; these wrappers pay only the result materialization.

// DijkstraTo runs Dijkstra from src with early termination once dst is
// settled. It returns the distance and one shortest path; the path is nil
// and the distance Unreachable when dst cannot be reached.
func DijkstraTo(g graph.View, src, dst graph.NodeID) (float64, graph.Path) {
	w := AcquireWorkspace(g.NumNodes())
	defer ReleaseWorkspace(w)
	return w.DijkstraTo(g, src, dst)
}

// DijkstraBounded settles every node v with dist(src, v) ≤ bound and stops.
// The returned tree has exact distances for all settled nodes; Settled lists
// them in non-decreasing distance order. It is the engine of the DIJ proof
// (Lemma 1: Γ = {Φ(v) | dist(vs, v) ≤ dist(vs, vt)}).
func DijkstraBounded(g graph.View, src graph.NodeID, bound float64) (*Tree, []graph.NodeID) {
	w := AcquireWorkspace(g.NumNodes())
	defer ReleaseWorkspace(w)
	settled := w.DijkstraBounded(g, src, bound)
	// DistOf and ParentOf read settled labels only: a tentative label
	// beyond the bound is not exact, so the tree never carries one.
	t := &Tree{Source: src, Dist: make([]float64, w.n), Parent: make([]graph.NodeID, w.n)}
	for v := range graph.NodeID(w.n) {
		t.Dist[v], t.Parent[v] = w.DistOf(v), w.ParentOf(v)
	}
	return t, append([]graph.NodeID(nil), settled...)
}
