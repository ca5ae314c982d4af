package sp

import "github.com/authhints/spv/internal/graph"

// LowerBound estimates a lower bound on the shortest path distance from v to
// the (implicit) target. A bound is admissible when LB(v) ≤ dist(v, vt) for
// all v; admissibility is all A* needs for optimality here because closed
// nodes are re-opened when a shorter way to them is found (the landmark
// bounds of §V-A stay admissible after quantization and compression but are
// not guaranteed consistent).
type LowerBound func(v graph.NodeID) float64

// AStar computes a shortest path from src to dst using the A* algorithm with
// the given admissible lower bound (paper §II-C). It returns the distance
// and one shortest path, or (Unreachable, nil). It runs on a pooled
// Workspace; searches issued in a loop should hold a Workspace and call its
// AStar method directly.
func AStar(g graph.View, src, dst graph.NodeID, lb LowerBound) (float64, graph.Path) {
	w := AcquireWorkspace(g.NumNodes())
	defer ReleaseWorkspace(w)
	return w.AStar(g, src, dst, lb)
}
