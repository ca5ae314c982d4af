package sp

import (
	"sync"

	"github.com/authhints/spv/internal/graph"
)

// Workspace is the reusable, allocation-free state of one graph search: the
// distance/parent labels, the settled set, and the dense indexed min-heap.
// The searches that serve queries (DijkstraTo, DijkstraBall,
// DijkstraBounded) settle every node through the heap, in distance order;
// FullRow, the search of every full row, puts only branch nodes through it
// and walks degree-2 chains in place — its distances bitwise theirs by the
// uniqueness argument in Repair's doc.
//
// All per-node arrays are cleared lazily via epoch stamps: each search bumps
// the workspace epoch, and a label is valid only when its stamp equals the
// current epoch. Starting a search therefore costs O(1), not O(|V|), and a
// query that touches k nodes does O(k) total label work — the difference
// between per-query cost tracking the graph size and tracking the query
// range.
//
// A workspace is not safe for concurrent use; acquire one per goroutine
// (AcquireWorkspace/ReleaseWorkspace pool them) or give each worker its
// own. Results read through DistOf/ParentOf/PathTo are valid until the next
// search on the same workspace.
type Workspace struct {
	epoch uint32
	n     int // nodes of the current search's graph

	seen   []uint32 // seen[v]==epoch ⇒ dist/parent valid
	done   []uint32 // done[v]==epoch ⇒ v settled (exact distance)
	dist   []float64
	parent []graph.NodeID

	settled []graph.NodeID // settle-order scratch for bounded searches

	heap Heap

	want []uint32 // Repair's closure stamps: want[v]==epoch ⇒ v is in C (join)
}

// NewWorkspace returns a workspace sized for graphs of up to n nodes; it
// grows transparently if later searches need more.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Reset(n)
	return w
}

// Reset prepares the workspace for a search over an n-node graph: grows the
// label arrays if needed and invalidates all previous labels in O(1) by
// bumping the epoch. Search methods call it themselves; callers only need
// it to pre-size a fresh workspace.
func (w *Workspace) Reset(n int) {
	if n > len(w.seen) {
		// Fresh zeroed arrays suffice: 0 is never a valid epoch, so no
		// copying of old labels is needed.
		w.seen = make([]uint32, n)
		w.done = make([]uint32, n)
		w.want = make([]uint32, n)
		w.dist = make([]float64, n)
		w.parent = make([]graph.NodeID, n)
	}
	w.n = n
	w.heap.Reset(n)
	w.settled = w.settled[:0]
	w.epoch++
	if w.epoch == 0 {
		// Epoch wrapped: stale stamps from 2^32 searches ago could now
		// collide, so pay one full clear and restart at 1.
		clearStamps(w.seen)
		clearStamps(w.done)
		clearStamps(w.want)
		w.epoch = 1
	}
}

func clearStamps(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// workspacePool backs AcquireWorkspace/ReleaseWorkspace. One pool serves
// all graph sizes: Reset grows a pooled workspace as needed, and road-scale
// workspaces are a few MB at most.
var workspacePool = sync.Pool{New: func() any { return &Workspace{} }}

// AcquireWorkspace returns a pooled workspace ready for searches on graphs
// of up to n nodes. Pair with ReleaseWorkspace so steady-state query
// serving reuses a small set of workspaces instead of allocating per
// request.
func AcquireWorkspace(n int) *Workspace {
	w := workspacePool.Get().(*Workspace)
	w.Reset(n)
	return w
}

// ReleaseWorkspace returns w to the pool. The caller must not touch w (or
// slices obtained from it, e.g. DijkstraBounded's settled set) afterwards.
func ReleaseWorkspace(w *Workspace) { workspacePool.Put(w) }

// DistOf returns the exact shortest path distance of a node settled by the
// last search, or Unreachable for unsettled nodes: after FullRow, the
// source's whole distance row.
func (w *Workspace) DistOf(v graph.NodeID) float64 {
	if int(v) < len(w.done) && w.done[v] == w.epoch {
		return w.dist[v]
	}
	return Unreachable
}

// ParentOf returns the predecessor of a settled node on its shortest path
// (graph.Invalid for the source and unsettled nodes).
func (w *Workspace) ParentOf(v graph.NodeID) graph.NodeID {
	if int(v) < len(w.done) && w.done[v] == w.epoch {
		return w.parent[v]
	}
	return graph.Invalid
}

// PathTo reconstructs the path from the last search's source to v, or nil
// if v was not reached.
func (w *Workspace) PathTo(v graph.NodeID) graph.Path {
	if int(v) >= len(w.seen) || w.seen[v] != w.epoch {
		return nil
	}
	var rev graph.Path
	for u := v; u != graph.Invalid; u = w.parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// label sets the tentative distance and parent of v, stamping it seen.
func (w *Workspace) label(v graph.NodeID, d float64, parent graph.NodeID) {
	w.seen[v] = w.epoch
	w.dist[v] = d
	w.parent[v] = parent
}

// dijkstra is the shared search core: never settle beyond bound, record
// settle order when collect is set, and once stopAt settles either stop
// (slack 0) or carry on with the bound drawn in to slack times its distance.
func (w *Workspace) dijkstra(g graph.View, src, stopAt graph.NodeID, bound float64, collect bool, slack float64) {
	w.Reset(g.NumNodes())
	w.label(src, 0, graph.Invalid)
	w.heap.Push(src, 0)
	for w.heap.Len() > 0 {
		v, d := w.heap.Pop()
		if d > bound {
			break
		}
		w.done[v] = w.epoch
		if collect {
			w.settled = append(w.settled, v)
		}
		if v == stopAt {
			if slack == 0 {
				break
			}
			bound = d * slack
		}
		for _, e := range g.Neighbors(v) {
			if w.done[e.To] == w.epoch {
				continue
			}
			nd := d + e.W
			if w.seen[e.To] != w.epoch {
				w.label(e.To, nd, v)
				w.heap.Push(e.To, nd)
			} else if nd < w.dist[e.To] {
				w.label(e.To, nd, v)
				w.heap.DecreaseKey(e.To, nd)
			}
		}
	}
}

// DijkstraBall is DijkstraTo(src, dst) followed by DijkstraBounded(src,
// dist·slack) in one search — the first is a strict prefix of the second:
// it settles dst, fixes the bound there, and keeps settling up to it. Same
// settle order, same parents, same distances as the two searches; the path
// is the caller's, the settled slice the workspace's (valid until the next
// search). A dst out of reach yields (Unreachable, nil, nil). slack ≥ 1.
func (w *Workspace) DijkstraBall(g graph.View, src, dst graph.NodeID, slack float64) (float64, graph.Path, []graph.NodeID) {
	w.dijkstra(g, src, dst, Unreachable, true, slack)
	if w.done[dst] != w.epoch {
		return Unreachable, nil, nil
	}
	return w.dist[dst], w.PathTo(dst), w.settled
}

// DijkstraTo runs Dijkstra from src with early termination once dst is
// settled, allocating only the returned path.
func (w *Workspace) DijkstraTo(g graph.View, src, dst graph.NodeID) (float64, graph.Path) {
	w.dijkstra(g, src, dst, Unreachable, false, 0)
	if w.seen[dst] != w.epoch {
		return Unreachable, nil
	}
	return w.dist[dst], w.PathTo(dst)
}

// DijkstraBounded settles every node v with dist(src, v) ≤ bound and
// returns them in settle (non-decreasing distance) order. The returned
// slice is owned by the workspace and valid until the next search; read
// distances with DistOf.
func (w *Workspace) DijkstraBounded(g graph.View, src graph.NodeID, bound float64) []graph.NodeID {
	w.dijkstra(g, src, graph.Invalid, bound, true, 0)
	return w.settled
}

// FullRow searches from src over the whole of g; DistOf and ParentOf then
// read src's distance row and its shortest-path tree. Every full distance
// row is this search, and in it only branch nodes — degree ≠ 2 — pass
// through the heap. An edge a popped node sends into a chain of
// degree-2 nodes is walked in place: each chain node's candidate is
// fl(previous + w) in walk order, written only where it strictly improves
// the node's label, and the walk stops at the first node it does not
// improve or relaxes the branch node at the chain's far end through the
// heap. A chain node is left by the half-edge that does not point back,
// which is the other one: a network has no self-loops or duplicate edges.
//
// The distances are bitwise those of the heap search (DijkstraBounded with
// bound Unreachable): both are the unique fixed point Repair's doc
// describes. The parents agree wherever a node's tight predecessors lie at
// different distances — on an exact tie the nearer predecessor takes the
// node, the order the heap settles them in — and between equally near
// ones the first offered keeps it; the source is never re-parented.
func (w *Workspace) FullRow(g *graph.CSR, src graph.NodeID) {
	w.Reset(g.NumNodes())
	w.label(src, 0, graph.Invalid)
	w.heap.Push(src, 0)
	for w.heap.Len() > 0 {
		u, d := w.heap.Pop()
		w.done[u] = w.epoch
		for _, e := range g.Neighbors(u) {
			w.walk(g, u, e.To, d+e.W)
		}
	}
}

// walk offers x the candidate d through p and carries it on down x's
// chain, then relaxes the branch node the chain ends in. Chain nodes are
// stamped done as they are labelled: they never enter the heap, and once
// the heap is empty every label stands. A popped branch node is skipped at
// a chain's end, as the heap search skips it; a candidate cannot beat it.
func (w *Workspace) walk(g *graph.CSR, p, x graph.NodeID, d float64) {
	for g.Degree(x) == 2 {
		if !w.offer(x, d, p) {
			return
		}
		w.done[x] = w.epoch
		nb := g.Neighbors(x)
		next := nb[0]
		if next.To == p {
			next = nb[1]
		}
		p, x, d = x, next.To, d+next.W
	}
	if w.done[x] == w.epoch {
		return
	}
	queued := w.seen[x] == w.epoch
	if w.offer(x, d, p) {
		if queued {
			w.heap.DecreaseKey(x, d)
		} else {
			w.heap.Push(x, d)
		}
	}
}

// offer gives x the candidate d through p. On a strict improvement it
// labels x and reports true; on an exact tie it re-parents x, but only to
// a predecessor nearer the source than x's current one — never the source
// itself, the one labelled node without a parent (a degree-2 source is
// offered candidates like any chain node).
func (w *Workspace) offer(x graph.NodeID, d float64, p graph.NodeID) bool {
	if w.seen[x] == w.epoch && d >= w.dist[x] {
		if q := w.parent[x]; d == w.dist[x] && q != graph.Invalid && w.dist[p] < w.dist[q] {
			w.parent[x] = p
		}
		return false
	}
	w.label(x, d, p)
	return true
}

// DijkstraRow runs FullRow from src and returns the complete |V| distance
// row (Unreachable for unreached nodes), reusing row's backing array when
// it has capacity. Unlike the workspace labels, the returned row is
// caller-owned — the shape hint-construction and all-pairs pipelines need,
// since they retain rows beyond the next search.
func (w *Workspace) DijkstraRow(g *graph.CSR, src graph.NodeID, row []float64) []float64 {
	w.FullRow(g, src)
	n := w.n
	if cap(row) < n {
		row = make([]float64, n)
	} else {
		row = row[:n]
	}
	for v := range row {
		row[v] = w.DistOf(graph.NodeID(v))
	}
	return row
}
