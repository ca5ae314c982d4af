package graph

import "fmt"

// View is the read-only adjacency surface shared by the mutable Graph and
// the frozen CSR: everything a graph search needs, nothing a mutator could
// race against. All shortest path algorithms in internal/sp accept a View,
// so owners/netgen keep the builder API while providers iterate the frozen
// form.
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
// []int32 offset table. Compared to the mutable [][]Edge form it removes
// one pointer indirection per node and keeps all half-edges contiguous, so
// a Dijkstra sweep walks memory almost linearly instead of chasing
// per-node slice headers. Providers build one when outsourced and every
// search on the query hot path iterates it.
//
// A CSR is immutable and safe for unbounded concurrent use.
type CSR struct {
	offs  []int32 // len NumNodes+1; half-edges of v at edges[offs[v]:offs[v+1]]
	edges []Edge  // all half-edges, adjacency order preserved
	xs    []float64
	ys    []float64
	num   int // undirected edge count
}

// Freeze snapshots g into CSR form. The snapshot is deep: later mutations
// of g are not visible through it. Freeze preserves the exact adjacency
// order of g, so searches over the CSR settle nodes in the same order (and
// produce the same proofs) as searches over g.
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

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.offs) - 1 }

// NumEdges returns |E| counting each undirected edge once.
func (c *CSR) NumEdges() int { return c.num }

// Neighbors returns the adjacency list of v as a sub-slice of the flat
// edge array. The slice is owned by the CSR and must not be modified.
func (c *CSR) Neighbors(v NodeID) []Edge { return c.edges[c.offs[v]:c.offs[v+1]] }

// Degree returns the number of edges incident to v.
func (c *CSR) Degree(v NodeID) int { return int(c.offs[v+1] - c.offs[v]) }

// X returns the x coordinate of v.
func (c *CSR) X(v NodeID) float64 { return c.xs[v] }

// Y returns the y coordinate of v.
func (c *CSR) Y(v NodeID) float64 { return c.ys[v] }
