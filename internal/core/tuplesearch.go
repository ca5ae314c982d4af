package core

import (
	"fmt"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// This file implements the client-side re-execution searches: shortest path
// algorithms that run over the authenticated tuple table instead of a graph,
// and that treat any *required* but missing tuple as proof invalidity. They
// are the heart of subgraph-proof verification (§IV-A, §V-A). All state is
// indexed by table slot; a neighbor is resolved to its slot when an edge to
// it is relaxed, so each search is linear in the proof edges it touches.

// relax offers slot `to` the tentative distance nd under heap key `key`.
func (s *verifyScratch) relax(to int32, nd, key float64) {
	s.dist[to] = nd
	if s.heap.Contains(graph.NodeID(to)) {
		s.heap.DecreaseKey(graph.NodeID(to), key)
	} else {
		s.heap.Push(graph.NodeID(to), key)
	}
	s.mark[to] = markSeen
}

// tupleDijkstra runs Dijkstra from src over the subgraph defined by the
// table, stopping once the frontier passes `bound` (the claimed shortest
// path distance). Every node within the bound must have a tuple — that is
// exactly Lemma 1's containment requirement — otherwise an
// ErrIncompleteProof is returned. It returns the subgraph distance of dst
// (sp.Unreachable if not reached within bound).
func (s *verifyScratch) tupleDijkstra(src, dst graph.NodeID, bound float64) (float64, error) {
	t := &s.tab
	slack := bound * (1 + distTolerance)
	missing := func(v graph.NodeID, d float64) error {
		return fmt.Errorf("%w: node %d required by Dijkstra re-run is missing (dist %g ≤ bound %g)",
			ErrIncompleteProof, v, d, bound)
	}
	from := t.slot(src)
	if from < 0 {
		return 0, missing(src, 0)
	}
	s.resetSearch()
	s.relax(from, 0, 0)
	for s.heap.Len() > 0 {
		v, d := s.heap.Pop()
		if d > slack {
			break
		}
		s.mark[v] = markDone
		for _, e := range t.adj(int32(v)) {
			nd := d + e.W
			to := t.slot(e.To)
			if to < 0 {
				// A tuple-less node would be settled at nd at the latest.
				if !(nd > slack) {
					return 0, missing(e.To, nd)
				}
				continue
			}
			if s.mark[to] == markDone || (s.mark[to] == markSeen && nd >= s.dist[to]) {
				continue
			}
			s.relax(to, nd, nd)
		}
	}
	if to := t.slot(dst); to >= 0 && s.mark[to] == markDone {
		return s.dist[to], nil
	}
	return sp.Unreachable, nil
}

// tupleAStar runs A* from src to dst over the subgraph defined by the table,
// with lb bounding a slot's distance to dst from below (Lemma 4's
// compressed landmark bound). Closed nodes are re-opened on improvement, so
// plain admissibility of lb suffices for optimality. Per Lemma 2, every
// node the search expands with f ≤ bound must have a tuple, and so must
// every neighbor of an expanded node (their lower bounds are needed to
// order the frontier); violations return ErrIncompleteProof. lb errors
// (missing landmark payloads) are treated the same way.
func (s *verifyScratch) tupleAStar(src, dst graph.NodeID, lb func(u int32) (float64, error), bound float64) (float64, error) {
	t := &s.tab
	from, target := t.slot(src), t.slot(dst)
	if from < 0 {
		return 0, fmt.Errorf("%w: node %d required by A* re-run is missing", ErrIncompleteProof, src)
	}
	lbSrc, err := lb(from)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
	}
	s.resetSearch()
	s.relax(from, 0, lbSrc)

	best := sp.Unreachable
	slack := bound * (1 + distTolerance)
	for s.heap.Len() > 0 {
		if best < sp.Unreachable && s.heap.Peek() >= best {
			break
		}
		v, f := s.heap.Pop()
		if f > slack {
			// Nodes beyond the claimed distance can only certify longer
			// paths; the claim check below handles rejection.
			break
		}
		if int32(v) == target {
			best = s.dist[v]
			continue
		}
		for _, e := range t.adj(int32(v)) {
			nd := s.dist[v] + e.W
			to := t.slot(e.To)
			if to < 0 {
				return 0, fmt.Errorf("%w: neighbor %d of expanded node %d is missing",
					ErrIncompleteProof, e.To, t.ids[v])
			}
			if s.mark[to] != 0 && nd >= s.dist[to] {
				continue
			}
			lbN, err := lb(to)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrIncompleteProof, err)
			}
			s.relax(to, nd, nd+lbN) // re-opens closed nodes as needed
		}
	}
	if best == sp.Unreachable && target >= 0 && s.mark[target] != 0 {
		// dst was reached but never popped within the bound: its g is an
		// upper bound that the claim check will compare.
		return s.dist[target], nil
	}
	return best, nil
}

// cellDijkstra runs the HYP client's intra-cell search (§V-B): Dijkstra
// from slot src restricted to edges between tuples of the same cell, using
// the authenticated cell/border annotations. Expanding a *non-border* node
// requires all its neighbors' tuples (an authentic non-border node has all
// neighbors in-cell, so absence means the provider pruned the cell);
// expanding a border node silently skips absent neighbors (they live in
// other cells). On return the settled same-cell slots are the markDone
// ones, with their distances in dist.
func (s *verifyScratch) cellDijkstra(src int32) error {
	t := &s.tab
	cell := t.cell[src]
	s.resetSearch()
	s.relax(src, 0, 0)
	for s.heap.Len() > 0 {
		v, d := s.heap.Pop()
		s.mark[v] = markDone
		for _, e := range t.adj(int32(v)) {
			to := t.slot(e.To)
			if to < 0 {
				if !t.border[v] {
					return fmt.Errorf("%w: non-border node %d has missing neighbor %d (cell pruned)",
						ErrIncompleteProof, t.ids[v], e.To)
				}
				continue // border nodes legitimately touch other cells
			}
			if s.mark[to] == markDone || t.cell[to] != cell {
				continue // settled, or a cross-cell edge: covered by hyper-edges
			}
			if nd := d + e.W; s.mark[to] == 0 || nd < s.dist[to] {
				s.relax(to, nd, nd)
			}
		}
	}
	return nil
}
