// Package order implements the graph-node orderings used to lay out
// extended-tuples as Merkle tree leaves (paper §III-B). The ordering
// determines how well network proximity is preserved in the tree and hence
// the size of integrity proofs: hbt, kd and dfs preserve locality and yield
// compact proofs; rand is the worst case (Fig 10).
package order

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
)

// Method names a graph-node ordering.
type Method string

const (
	// Random ordering of nodes.
	Random Method = "rand"
	// Hilbert orders nodes by their position on a Hilbert space-filling
	// curve over the coordinate space.
	Hilbert Method = "hbt"
	// KD orders nodes by kd-tree leaf traversal (spatial partitioning).
	KD Method = "kd"
	// BFS orders nodes by breadth-first traversal of the graph.
	BFS Method = "bfs"
	// DFS orders nodes by depth-first traversal of the graph.
	DFS Method = "dfs"
)

// Methods lists all orderings in the paper's Table II order.
func Methods() []Method { return []Method{BFS, DFS, Hilbert, KD, Random} }

// Valid reports whether m names a known method.
func (m Method) Valid() bool {
	switch m {
	case Random, Hilbert, KD, BFS, DFS:
		return true
	}
	return false
}

// Ordering is a bijection between graph nodes and Merkle leaf positions.
type Ordering struct {
	Method Method
	// Seq[pos] is the node at leaf position pos.
	Seq []graph.NodeID
	// Pos[node] is the leaf position of node.
	Pos []int
}

// Compute derives the ordering of g's nodes under method m. seed feeds the
// Random method only; all other methods are deterministic. Traversal-based
// methods (BFS, DFS) restart from the lowest-ID unvisited node per connected
// component.
func Compute(g *graph.CSR, m Method, seed int64) (*Ordering, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("order: empty graph")
	}
	var seq []graph.NodeID
	switch m {
	case Random:
		rng := rand.New(rand.NewSource(seed))
		seq = make([]graph.NodeID, n)
		for i, p := range rng.Perm(n) {
			seq[i] = graph.NodeID(p)
		}
	case Hilbert:
		seq = hilbertOrder(g)
	case KD:
		seq = kdOrder(g)
	case BFS:
		seq = bfsOrder(g)
	case DFS:
		seq = dfsOrder(g)
	default:
		return nil, fmt.Errorf("order: unknown method %q", m)
	}
	if len(seq) != n {
		return nil, fmt.Errorf("order: %s produced %d positions for %d nodes", m, len(seq), n)
	}
	return FromSeq(m, seq)
}

// FromSeq reconstructs an Ordering from an explicit leaf sequence,
// validating that it is a bijection over [0, len(seq)). Snapshot loading
// uses it to restore the exact outsourcing-time layout without re-running
// (or trusting the determinism of) the ordering computation; Compute
// funnels through it too, so both paths share the validation. The seq
// slice is retained, not copied.
func FromSeq(m Method, seq []graph.NodeID) (*Ordering, error) {
	n := len(seq)
	if n == 0 {
		return nil, fmt.Errorf("order: empty sequence")
	}
	o := &Ordering{Method: m, Seq: seq, Pos: make([]int, n)}
	for i := range o.Pos {
		o.Pos[i] = -1
	}
	for pos, v := range seq {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("order: %s node %d out of range [0, %d)", m, v, n)
		}
		if o.Pos[v] != -1 {
			return nil, fmt.Errorf("order: %s produced duplicate node %d", m, v)
		}
		o.Pos[v] = pos
	}
	for v, pos := range o.Pos {
		if pos == -1 {
			return nil, fmt.Errorf("order: %s omitted node %d", m, v)
		}
	}
	return o, nil
}

func hilbertOrder(g *graph.CSR) []graph.NodeID {
	minX, minY, maxX, maxY := g.Bounds()
	extent := maxX - minX
	if maxY-minY > extent {
		extent = maxY - minY
	}
	type keyed struct {
		key uint64
		v   graph.NodeID
	}
	ks := make([]keyed, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		ks[v] = keyed{geom.HilbertKey(g.X(id), g.Y(id), minX, minY, extent), id}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].v < ks[j].v
	})
	seq := make([]graph.NodeID, len(ks))
	for i, k := range ks {
		seq[i] = k.v
	}
	return seq
}

func kdOrder(g *graph.CSR) []graph.NodeID {
	pts := make([]geom.Point, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		pts[v] = geom.Point{X: g.X(id), Y: g.Y(id), Idx: v}
	}
	idx := geom.KDOrder(pts)
	seq := make([]graph.NodeID, len(idx))
	for i, v := range idx {
		seq[i] = graph.NodeID(v)
	}
	return seq
}

func bfsOrder(g graph.View) []graph.NodeID {
	n := g.NumNodes()
	seq := make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	queue := make([]graph.NodeID, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = append(queue[:0], graph.NodeID(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			seq = append(seq, v)
			// Visit neighbors in ascending ID order for determinism.
			nbrs := append([]graph.Edge(nil), g.Neighbors(v)...)
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].To < nbrs[j].To })
			for _, e := range nbrs {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	return seq
}

func dfsOrder(g graph.View) []graph.NodeID {
	n := g.NumNodes()
	seq := make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	var stack []graph.NodeID
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		stack = append(stack[:0], graph.NodeID(start))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			seq = append(seq, v)
			// Push neighbors in descending ID so lowest IDs pop first.
			nbrs := append([]graph.Edge(nil), g.Neighbors(v)...)
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].To > nbrs[j].To })
			for _, e := range nbrs {
				if !seen[e.To] {
					stack = append(stack, e.To)
				}
			}
		}
	}
	return seq
}
