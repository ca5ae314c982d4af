package graph

import (
	"fmt"
	"math"
)

// View is the read-only adjacency surface shared by the builder Graph and
// the frozen CSR: everything a graph search needs, nothing a mutator could
// race against. All shortest path algorithms in internal/sp accept a View,
// so generators and tests keep the builder API while everything past
// outsourcing iterates the frozen form.
type View interface {
	// NumNodes returns |V|.
	NumNodes() int
	// Neighbors returns the adjacency list of v. The returned slice is
	// owned by the view and must not be modified.
	Neighbors(v NodeID) []Edge
}

// Compile-time checks that both graph forms satisfy View.
var (
	_ View = (*Graph)(nil)
	_ View = (*CSR)(nil)
)

// CSR is a frozen compressed-sparse-row snapshot of a Graph: every
// adjacency list laid out back-to-back in one flat []Edge, indexed by a
// []int32 offset table. Compared to the builder's [][]Edge form it removes
// one pointer indirection per node and keeps all half-edges contiguous, so
// a Dijkstra sweep walks memory almost linearly instead of chasing
// per-node slice headers. It is the one network representation past
// outsourcing: owners hold one per update epoch, and providers, snapshot
// loaders and certificate audits read theirs and nothing else.
//
// A CSR is immutable and safe for unbounded concurrent use — except the
// private copy WithPrivateEdges hands out, which its holder re-weights
// before anyone else reads it.
type CSR struct {
	offs  []int32 // len NumNodes+1; half-edges of v at edges[offs[v]:offs[v+1]]
	edges []Edge  // all half-edges, adjacency order preserved
	xs    []float64
	ys    []float64
	num   int // undirected edge count
}

// Freeze snapshots g into CSR form. The snapshot is deep: later mutations
// of g are not visible through it. Freeze preserves the exact adjacency
// order of g — ascending neighbor IDs, as AddEdge keeps it — so searches
// over the CSR settle nodes in the same order (and produce the same proofs)
// as searches over g, and tuples need no canonicalization sort.
func (g *Graph) Freeze() *CSR {
	n := g.NumNodes()
	half := 0
	for _, a := range g.adj {
		half += len(a)
	}
	if int64(half) > int64(1)<<31-1 {
		// 2^31 half-edges is beyond what NodeID-addressed networks can
		// reach; guard anyway so offsets can stay int32.
		panic(fmt.Sprintf("graph: %d half-edges overflow CSR int32 offsets", half))
	}
	c := &CSR{
		offs:  make([]int32, n+1),
		edges: make([]Edge, 0, half),
		xs:    append([]float64(nil), g.xs...),
		ys:    append([]float64(nil), g.ys...),
		num:   g.edges,
	}
	for v, a := range g.adj {
		c.offs[v] = int32(len(c.edges))
		c.edges = append(c.edges, a...)
	}
	c.offs[n] = int32(len(c.edges))
	return c
}

// WithPrivateEdges returns a CSR that shares c's offsets and coordinates
// but owns a copy of its edge array — the next update epoch's network, for
// its holder to re-weight with SetEdgeWeight and only then publish. c is
// untouched, so everything still reading it keeps its snapshot.
func (c *CSR) WithPrivateEdges() *CSR {
	nc := *c
	nc.edges = append([]Edge(nil), c.edges...)
	return &nc
}

// SetEdgeWeight re-weights the existing undirected edge (u, v) in place,
// returning the previous weight. The adjacency structure (and therefore
// every ordering and partition derived from it) is unchanged. Only the
// holder of a WithPrivateEdges copy no other goroutine has seen yet may call
// it; a published CSR is immutable.
func (c *CSR) SetEdgeWeight(u, v NodeID, w float64) (float64, error) {
	switch {
	case !c.valid(u) || !c.valid(v):
		return 0, fmt.Errorf("%w: endpoint out of range (%d, %d)", ErrBadEdge, u, v)
	case w < 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return 0, fmt.Errorf("%w: weight %v", ErrBadEdge, w)
	}
	au, av := c.Neighbors(u), c.Neighbors(v)
	iu, ok := searchAdj(au, v)
	if !ok {
		return 0, fmt.Errorf("%w: no edge (%d, %d)", ErrBadEdge, u, v)
	}
	iv, _ := searchAdj(av, u)
	old := au[iu].W
	au[iu].W = w
	av[iv].W = w
	return old, nil
}

func (c *CSR) valid(v NodeID) bool { return v >= 0 && int(v) < c.NumNodes() }

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.offs) - 1 }

// NumEdges returns |E| counting each undirected edge once.
func (c *CSR) NumEdges() int { return c.num }

// Neighbors returns the adjacency list of v as a sub-slice of the flat
// edge array. The slice is owned by the CSR and must not be modified.
func (c *CSR) Neighbors(v NodeID) []Edge { return c.edges[c.offs[v]:c.offs[v+1]] }

// Degree returns the number of edges incident to v.
func (c *CSR) Degree(v NodeID) int { return int(c.offs[v+1] - c.offs[v]) }

// NoParent is the parent slot of a shortest-path tree's root and of the
// nodes the tree does not reach. Any other slot k of node x names x's
// parent edge by its index in x's adjacency list, Neighbors(x)[k], so a
// tree can address every neighbour of a node of degree at most NoParent.
const NoParent = math.MaxUint16

// ParentSlot returns the slot that names p as x's parent: p's index in
// x's adjacency list (the lists hold no duplicate edges, so the neighbour
// names the edge), or NoParent when p is Invalid. It panics if p is no
// neighbour of x.
func (c *CSR) ParentSlot(x, p NodeID) uint16 {
	if p == Invalid {
		return NoParent
	}
	k, ok := searchAdj(c.Neighbors(x), p)
	if !ok {
		panic(fmt.Sprintf("graph: %d is no neighbour of %d", p, x))
	}
	return uint16(k)
}

// CheckSlots returns an error naming the first node whose neighbours a
// parent slot cannot address: one of degree above NoParent.
func (c *CSR) CheckSlots() error {
	for v := range NodeID(c.NumNodes()) {
		if d := c.Degree(v); d > NoParent {
			return fmt.Errorf("graph: node %d has %d neighbours, a parent slot addresses at most %d", v, d, NoParent)
		}
	}
	return nil
}

// X returns the x coordinate of v.
func (c *CSR) X(v NodeID) float64 { return c.xs[v] }

// Y returns the y coordinate of v.
func (c *CSR) Y(v NodeID) float64 { return c.ys[v] }

// EdgeWeight returns the weight of edge (u, v) and whether it exists.
func (c *CSR) EdgeWeight(u, v NodeID) (float64, bool) {
	if !c.valid(u) || !c.valid(v) {
		return 0, false
	}
	adj := c.Neighbors(u)
	i, ok := searchAdj(adj, v)
	if !ok {
		return 0, false
	}
	return adj[i].W, true
}

// Bounds returns the bounding box of all node coordinates. For an empty
// network it returns zeros.
func (c *CSR) Bounds() (minX, minY, maxX, maxY float64) {
	if c.NumNodes() == 0 {
		return 0, 0, 0, 0
	}
	minX, maxX = c.xs[0], c.xs[0]
	minY, maxY = c.ys[0], c.ys[0]
	for i := 1; i < c.NumNodes(); i++ {
		minX = math.Min(minX, c.xs[i])
		maxX = math.Max(maxX, c.xs[i])
		minY = math.Min(minY, c.ys[i])
		maxY = math.Max(maxY, c.ys[i])
	}
	return minX, minY, maxX, maxY
}
