package graph

import (
	"errors"
	"fmt"
)

// Path is a sequence of nodes v_z0, v_z1, ..., v_zk claimed to form a walk
// in the graph. The result of a shortest path query is a Path from the
// source to the target.
type Path []NodeID

// Source returns the first node of the path, or Invalid if empty.
func (p Path) Source() NodeID {
	if len(p) == 0 {
		return Invalid
	}
	return p[0]
}

// Target returns the last node of the path, or Invalid if empty.
func (p Path) Target() NodeID {
	if len(p) == 0 {
		return Invalid
	}
	return p[len(p)-1]
}

// Hops returns the number of edges on the path.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// ErrNotAPath reports that a claimed path uses a non-existent edge or is
// structurally invalid.
var ErrNotAPath = errors.New("graph: not a path")

// DistIn computes dist(P) = Σ W(v_{zi-1}, v_zi) over graph g (paper §III-A).
// It fails if any claimed edge does not exist in g.
func (p Path) DistIn(g *Graph) (float64, error) {
	if len(p) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrNotAPath)
	}
	total := 0.0
	for i := 1; i < len(p); i++ {
		w, ok := g.EdgeWeight(p[i-1], p[i])
		if !ok {
			return 0, fmt.Errorf("%w: missing edge (%d, %d)", ErrNotAPath, p[i-1], p[i])
		}
		total += w
	}
	return total, nil
}

// Validate checks that p is a simple path in g from vs to vt: endpoints
// match, every hop is an existing edge, and no node repeats.
func (p Path) Validate(g *Graph, vs, vt NodeID) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty", ErrNotAPath)
	}
	if p.Source() != vs || p.Target() != vt {
		return fmt.Errorf("%w: endpoints (%d, %d), want (%d, %d)",
			ErrNotAPath, p.Source(), p.Target(), vs, vt)
	}
	seen := make(map[NodeID]bool, len(p))
	for i, v := range p {
		if seen[v] {
			return fmt.Errorf("%w: node %d repeats", ErrNotAPath, v)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(p[i-1], v) {
			return fmt.Errorf("%w: missing edge (%d, %d)", ErrNotAPath, p[i-1], v)
		}
	}
	return nil
}
