// Package graph implements the weighted spatial graph substrate used by all
// verification methods: nodes with coordinates, undirected weighted
// adjacency, the extended-tuple Φ(v) representation from the paper
// (§III-B, Eq. 1), and binary (de)serialization.
//
// Road networks are modeled exactly as in the paper: G = (V, E, W) where V
// is a set of junctions with (x, y) coordinates, E is a set of undirected
// road segments and W maps each segment to a non-negative weight (travel
// distance, driving time, toll fee, ...). Euclidean lower bounds are never
// assumed; weights are opaque non-negative values.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node. IDs are dense indices in [0, NumNodes).
type NodeID int32

// Invalid is a sentinel NodeID used for "no node" (e.g. absent parents in
// shortest path trees).
const Invalid NodeID = -1

// Edge is one directed half of an undirected road segment: the neighbor it
// leads to and the segment weight W(v, To).
type Edge struct {
	To NodeID
	W  float64
}

// Graph is a weighted spatial graph with undirected edges. The zero value is
// an empty graph ready for AddNode/AddEdge.
//
// Adjacency lists are maintained in ascending neighbor-ID order at all
// times: AddEdge inserts in place, so duplicate detection and HasEdge /
// EdgeWeight lookups are binary searches (O(log deg)) instead of linear
// scans — the difference between O(Σdeg²) and O(Σdeg·log deg) bulk loads —
// and tuple encodings never need a separate canonicalization sort.
//
// Graph is the builder: generators, file readers and tests assemble a
// network with it, and Freeze turns it into the CSR (csr.go) that owners,
// providers and loaders read from then on. Graph is not safe for
// concurrent mutation; concurrent reads are safe.
type Graph struct {
	xs, ys []float64
	adj    [][]Edge
	edges  int
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		xs:  make([]float64, 0, n),
		ys:  make([]float64, 0, n),
		adj: make([][]Edge, 0, n),
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns |E| counting each undirected edge once.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode appends a node with coordinates (x, y) and returns its ID.
func (g *Graph) AddNode(x, y float64) NodeID {
	g.xs = append(g.xs, x)
	g.ys = append(g.ys, y)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// ErrBadEdge is returned by AddEdge for malformed edges.
var ErrBadEdge = errors.New("graph: bad edge")

// AddEdge inserts the undirected edge (u, v) with weight w. Self-loops,
// negative weights, duplicate edges, NaN/Inf weights and out-of-range
// endpoints are rejected. The duplicate check is a binary search and the
// common append case (ascending neighbor IDs, as loaders and generators
// produce) costs no element moves.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	switch {
	case u == v:
		return fmt.Errorf("%w: self-loop at %d", ErrBadEdge, u)
	case !g.valid(u) || !g.valid(v):
		return fmt.Errorf("%w: endpoint out of range (%d, %d)", ErrBadEdge, u, v)
	case w < 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("%w: weight %v", ErrBadEdge, w)
	}
	au, av := g.adj[u], g.adj[v]
	// Pure-append fast path: loaders and canonical streams grow every list
	// in ascending order, so the common insert touches only the last slot.
	iu := len(au)
	if iu > 0 && au[iu-1].To >= v {
		var dup bool
		if iu, dup = searchAdj(au, v); dup {
			return fmt.Errorf("%w: duplicate edge (%d, %d)", ErrBadEdge, u, v)
		}
	}
	iv := len(av)
	if iv > 0 && av[iv-1].To >= u {
		iv, _ = searchAdj(av, u)
	}
	g.adj[u] = insertEdge(au, iu, Edge{To: v, W: w})
	g.adj[v] = insertEdge(av, iv, Edge{To: u, W: w})
	g.edges++
	return nil
}

// searchAdj searches a sorted adjacency list for `to`, returning the
// insertion index and whether the edge already exists. Road-network degrees
// are tiny, so short lists use a branch-predictable linear scan; longer
// lists a closure-free binary search.
func searchAdj(adj []Edge, to NodeID) (int, bool) {
	if len(adj) <= 8 {
		for i, e := range adj {
			if e.To >= to {
				return i, e.To == to
			}
		}
		return len(adj), false
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(adj) && adj[lo].To == to
}

// insertEdge places e at index i, shifting the tail right (plain append
// when i is the end).
func insertEdge(adj []Edge, i int, e Edge) []Edge {
	if i == len(adj) {
		return append(adj, e)
	}
	adj = append(adj, Edge{})
	copy(adj[i+1:], adj[i:])
	adj[i] = e
	return adj
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// that construct edges known to be valid.
func (g *Graph) MustAddEdge(u, v NodeID, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.adj) }

// RemoveEdge deletes the undirected edge (u, v), reporting whether it
// existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) || !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = dropEdge(g.adj[u], v)
	g.adj[v] = dropEdge(g.adj[v], u)
	g.edges--
	return true
}

func dropEdge(adj []Edge, to NodeID) []Edge {
	out := adj[:0]
	for _, e := range adj {
		if e.To != to {
			out = append(out, e)
		}
	}
	return out
}

// X returns the x coordinate of v.
func (g *Graph) X(v NodeID) float64 { return g.xs[v] }

// Y returns the y coordinate of v.
func (g *Graph) Y(v NodeID) float64 { return g.ys[v] }

// Neighbors returns the adjacency list of v in ascending neighbor-ID
// order. The returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v NodeID) []Edge { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	_, ok := searchAdj(g.adj[u], v)
	return ok
}

// EdgeWeight returns the weight of edge (u, v) and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	i, ok := searchAdj(g.adj[u], v)
	if !ok {
		return 0, false
	}
	return g.adj[u][i].W, true
}

// Euclid returns the Euclidean distance between the coordinates of u and v.
// It is used only for spatial organization (orderings, grid cells), never as
// a shortest path lower bound, matching the paper's assumption that edge
// weights need not be Euclidean.
func (g *Graph) Euclid(u, v NodeID) float64 {
	dx, dy := g.xs[u]-g.xs[v], g.ys[u]-g.ys[v]
	return math.Hypot(dx, dy)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		xs:    append([]float64(nil), g.xs...),
		ys:    append([]float64(nil), g.ys...),
		adj:   make([][]Edge, len(g.adj)),
		edges: g.edges,
	}
	for i, a := range g.adj {
		c.adj[i] = append([]Edge(nil), a...)
	}
	return c
}

// Validate checks structural invariants: symmetric adjacency, no self loops,
// no duplicates, non-negative finite weights, matching edge count.
func (g *Graph) Validate() error {
	count := 0
	for u, a := range g.adj {
		seen := make(map[NodeID]bool, len(a))
		for _, e := range a {
			if !g.valid(e.To) {
				return fmt.Errorf("graph: node %d has edge to out-of-range %d", u, e.To)
			}
			if e.To == NodeID(u) {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if seen[e.To] {
				return fmt.Errorf("graph: duplicate edge (%d, %d)", u, e.To)
			}
			seen[e.To] = true
			if e.W < 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				return fmt.Errorf("graph: bad weight %v on (%d, %d)", e.W, u, e.To)
			}
			w, ok := g.EdgeWeight(e.To, NodeID(u))
			if !ok || w != e.W {
				return fmt.Errorf("graph: asymmetric edge (%d, %d)", u, e.To)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d does not match adjacency (%d half-edges)", g.edges, count)
	}
	return nil
}

// ConnectedComponents returns, for every node, the index of its connected
// component, along with the number of components. Component indices are
// assigned in order of first appearance.
func (g *Graph) ConnectedComponents() (comp []int, n int) {
	comp = make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	for s := 0; s < g.NumNodes(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = n
		stack = append(stack[:0], NodeID(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[v] {
				if comp[e.To] < 0 {
					comp[e.To] = n
					stack = append(stack, e.To)
				}
			}
		}
		n++
	}
	return comp, n
}

// IsConnected reports whether all nodes belong to one component.
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, n := g.ConnectedComponents()
	return n == 1
}
