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

// BiDijkstra computes a shortest path with bidirectional Dijkstra search
// (paper §II-C, [24]): two concurrent expansions from source and target that
// stop when the sum of the two frontiers' minimum keys reaches the best
// meeting distance found.
func BiDijkstra(g graph.View, src, dst graph.NodeID) (float64, graph.Path) {
	if src == dst {
		return 0, graph.Path{src}
	}
	n := g.NumNodes()
	type side struct {
		dist   []float64
		parent []graph.NodeID
		done   []bool
		heap   *Heap
	}
	mkSide := func(root graph.NodeID) *side {
		s := &side{
			dist:   make([]float64, n),
			parent: make([]graph.NodeID, n),
			done:   make([]bool, n),
			heap:   NewHeap(n),
		}
		for i := range s.dist {
			s.dist[i] = Unreachable
			s.parent[i] = graph.Invalid
		}
		s.dist[root] = 0
		s.heap.Push(root, 0)
		return s
	}
	fwd, bwd := mkSide(src), mkSide(dst)

	best := Unreachable
	var meet graph.NodeID = graph.Invalid

	relax := func(s, other *side, v graph.NodeID, d float64) {
		s.done[v] = true
		for _, e := range g.Neighbors(v) {
			if s.done[e.To] {
				continue
			}
			nd := d + e.W
			if nd < s.dist[e.To] {
				if s.dist[e.To] == Unreachable {
					s.heap.Push(e.To, nd)
				} else {
					s.heap.DecreaseKey(e.To, nd)
				}
				s.dist[e.To] = nd
				s.parent[e.To] = v
			}
			if other.dist[e.To] < Unreachable && nd+other.dist[e.To] < best {
				best = nd + other.dist[e.To]
				meet = e.To
			}
		}
		if other.dist[v] < Unreachable && d+other.dist[v] < best {
			best = d + other.dist[v]
			meet = v
		}
	}

	for fwd.heap.Len() > 0 || bwd.heap.Len() > 0 {
		fMin, bMin := Unreachable, Unreachable
		if fwd.heap.Len() > 0 {
			fMin = fwd.heap.Peek()
		}
		if bwd.heap.Len() > 0 {
			bMin = bwd.heap.Peek()
		}
		if fMin+bMin >= best {
			break
		}
		if fMin <= bMin {
			v, d := fwd.heap.Pop()
			relax(fwd, bwd, v, d)
		} else {
			v, d := bwd.heap.Pop()
			relax(bwd, fwd, v, d)
		}
	}
	if meet == graph.Invalid {
		return Unreachable, nil
	}
	// Stitch the two half-paths at the meeting node.
	var rev graph.Path
	for u := meet; u != graph.Invalid; u = fwd.parent[u] {
		rev = append(rev, u)
	}
	path := make(graph.Path, 0, len(rev)+4)
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	for u := bwd.parent[meet]; u != graph.Invalid; u = bwd.parent[u] {
		path = append(path, u)
	}
	return best, path
}
