package sp

import "github.com/authhints/spv/internal/graph"

// Row is a stored distance row Repair rewrites: At reads the value at a
// node, Set stores one together with the node's parent — the neighbour p
// with d = fl(d(p) + w(p, x)) in the network after the step, settled
// before x in this repair or left alone by it (graph.Invalid when d is
// Unreachable). Repair reads a node's value only before it sets it, and
// sets each re-settled node once.
type Row interface {
	At(x graph.NodeID) float64
	Set(x graph.NodeID, d float64, parent graph.NodeID)
}

// Step is one edge re-weighting: in G, the network after the step, edge
// (U, V) weighs New; before the step it weighed Old, and every other edge
// weighed what it weighs in G.
type Step struct {
	G        *graph.CSR
	U, V     graph.NodeID
	Old, New float64
}

// Repair rewrites row — DijkstraRow(src) over the network before step s,
// bit for bit — into DijkstraRow(s.G, src), re-settling only the nodes
// whose value can change, and returns how many it re-settled.
//
// The result is bitwise a fresh search's, ties included. A Dijkstra row is
// the unique d with d(src) = 0 and d(x) = min over neighbours p of
// fl(d(p) + w(p, x)) in which every finite value has a chain of tight edges
// (d(x) = fl(d(p) + w(p, x))) back to src: fl(a + w) is monotone in a and
// never below a for w ≥ 0, so the value cannot depend on which of several
// tied parents a search happens to pick. Repair re-solves exactly that
// system around the one changed edge:
//
//   - a decrease seeds the endpoint fl(d(other) + New) improves and runs a
//     strict-< Dijkstra from the row's own values, stopping where nothing
//     improves;
//   - an increase takes C, the closure over old-tight edges from the
//     endpoint(s) the edge was tight into (src never joins it), seeds each
//     node of C with its best value from neighbours outside C, and runs
//     Dijkstra inside C;
//   - an edge tight in neither direction under the old weight, or a
//     decrease that improves neither endpoint, costs O(1).
//
// Tentative labels live in the workspace; Set sees each final value once,
// with its parent. A tree of tight parents therefore stays one under
// Repair: a node it leaves alone keeps a tight parent (a parent that
// changed either re-settled it or stayed tight with it), and a node it
// re-settles gets a parent settled before it — or, seeding, one it leaves
// alone, whose chain passes no re-settled node — so no cycle can close,
// not even across zero-weight edges.
func (w *Workspace) Repair(s Step, src graph.NodeID, row Row) int {
	du, dv := row.At(s.U), row.At(s.V)
	switch {
	case s.New < s.Old:
		w.Reset(s.G.NumNodes())
		w.improve(s.V, du+s.New, dv, s.U)
		w.improve(s.U, dv+s.New, du, s.V)
		return w.lower(s.G, row)
	case s.New > s.Old:
		w.Reset(s.G.NumNodes())
		if du != Unreachable && du+s.Old == dv && s.V != src {
			w.join(s.V)
		}
		if dv != Unreachable && dv+s.Old == du && s.U != src {
			w.join(s.U)
		}
		return w.raise(s, src, row)
	}
	return 0
}

// improve queues x at d, reached from p, when d beats its stored value cur.
func (w *Workspace) improve(x graph.NodeID, d, cur float64, p graph.NodeID) {
	if d < cur {
		w.label(x, d, p)
		w.heap.Push(x, d)
	}
}

// lower settles the queued improvements and everything they improve in
// turn. A node's stored value is read only while it is unlabelled, so the
// row is never read where it has already been set.
func (w *Workspace) lower(g *graph.CSR, row Row) int {
	settled := 0
	for w.heap.Len() > 0 {
		x, d := w.heap.Pop()
		row.Set(x, d, w.parent[x])
		settled++
		for _, e := range g.Neighbors(x) {
			nd := d + e.W
			if w.seen[e.To] != w.epoch {
				w.improve(e.To, nd, row.At(e.To), x)
			} else if nd < w.dist[e.To] {
				w.label(e.To, nd, x)
				w.heap.DecreaseKey(e.To, nd)
			}
		}
	}
	return settled
}

// join adds x to the increase's closure C: membership is the want stamp,
// the members are listed in the settled scratch.
func (w *Workspace) join(x graph.NodeID) {
	w.want[x] = w.epoch
	w.settled = append(w.settled, x)
}

// raise grows C from the joined endpoints, seeds it from outside and
// re-settles it. Nodes outside C keep a tight chain to src that neither
// enters C nor uses the raised edge, so their values stand.
func (w *Workspace) raise(s Step, src graph.NodeID, row Row) int {
	for i := 0; i < len(w.settled); i++ {
		x := w.settled[i]
		dx := row.At(x)
		for _, e := range s.G.Neighbors(x) {
			y, wt := e.To, e.W
			if y == src || w.want[y] == w.epoch {
				continue
			}
			if (x == s.U && y == s.V) || (x == s.V && y == s.U) {
				wt = s.Old
			}
			if dx+wt == row.At(y) {
				w.join(y)
			}
		}
	}
	c := w.settled
	for _, x := range c {
		best, from := Unreachable, graph.Invalid
		for _, e := range s.G.Neighbors(x) {
			if w.want[e.To] == w.epoch {
				continue
			}
			if dp := row.At(e.To); dp != Unreachable && dp+e.W < best {
				best, from = dp+e.W, e.To
			}
		}
		if from != graph.Invalid {
			w.label(x, best, from)
			w.heap.Push(x, best)
		}
	}
	for w.heap.Len() > 0 {
		x, d := w.heap.Pop()
		w.done[x] = w.epoch
		row.Set(x, d, w.parent[x])
		for _, e := range s.G.Neighbors(x) {
			y := e.To
			if w.want[y] != w.epoch || w.done[y] == w.epoch {
				continue
			}
			nd := d + e.W
			if w.seen[y] != w.epoch {
				w.label(y, nd, x)
				w.heap.Push(y, nd)
			} else if nd < w.dist[y] {
				w.label(y, nd, x)
				w.heap.DecreaseKey(y, nd)
			}
		}
	}
	for _, x := range c {
		if w.done[x] != w.epoch {
			row.Set(x, Unreachable, graph.Invalid) // C lost its last way in
		}
	}
	return len(c)
}
