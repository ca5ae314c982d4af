package sp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
)

// auditLabels runs cert.AuditRow — the one oracle of a labelling: the
// parents a tree, every distance a true shortest-path distance — over the
// parents src's last search left in w, and returns the distances the audit
// folded from them.
func auditLabels(g *graph.CSR, src graph.NodeID, w *Workspace) ([]float64, error) {
	n := g.NumNodes()
	c, err := cert.New(digest.SHA1, 1, make([]byte, digest.SHA1.Size()), n, 0,
		[]cert.Spec{{Method: "DIJ", Srcs: []graph.NodeID{src}}})
	if err != nil {
		return nil, err
	}
	row := c.Methods[0].Row(0)
	for v := range graph.NodeID(n) {
		row.SetSlot(int(v), g.ParentSlot(v, w.ParentOf(v)))
	}
	var sc cert.Scratch
	if err := cert.AuditRow(g, row, &sc); err != nil {
		return nil, err
	}
	return sc.Dists(), nil
}

// checkFullRow holds FullRow from every source of g to the heap search
// (DijkstraBounded with bound Unreachable), every distance bitwise, and
// its parents to cert.AuditRow, their fold bitwise its distances (what
// the certificate audit's exact stored-row checks rely on); with fw set,
// also to Floyd–Warshall within the float tolerance its different
// summation order needs. With sameParents set, the parents must be the
// heap search's too.
func checkFullRow(t *testing.T, name string, g *graph.CSR, fw, sameParents bool) {
	t.Helper()
	n := g.NumNodes()
	var all [][]float64
	if fw {
		all = FloydWarshall(g)
	}
	heap, kernel := NewWorkspace(n), NewWorkspace(n)
	for s := range graph.NodeID(n) {
		heap.DijkstraBounded(g, s, Unreachable)
		kernel.FullRow(g, s)
		for v := range graph.NodeID(n) {
			got, want := kernel.DistOf(v), heap.DistOf(v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: dist(%d, %d) = %v, the heap search gives %v", name, s, v, got, want)
			}
			if sameParents && kernel.ParentOf(v) != heap.ParentOf(v) {
				t.Fatalf("%s: parent of %d from %d is %d, the heap search's is %d", name, v, s, kernel.ParentOf(v), heap.ParentOf(v))
			}
			if fw {
				if a := all[s][v]; (a == Unreachable) != (got == Unreachable) || math.Abs(a-got) > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("%s: dist(%d, %d) = %v, Floyd–Warshall gives %v", name, s, v, got, a)
				}
			}
		}
		folded, err := auditLabels(g, s, kernel)
		if err != nil {
			t.Fatalf("%s: the row from %d fails the audit: %v", name, s, err)
		}
		for v, d := range folded {
			if got := kernel.DistOf(graph.NodeID(v)); math.Float64bits(d) != math.Float64bits(got) {
				t.Fatalf("%s: the parents from %d fold to %v at %d, the search gives %v", name, s, d, v, got)
			}
		}
	}
}

// world builds an n-node network from (u, v, w) triples.
func world(t testing.TB, n int, edges [][3]float64) *graph.CSR {
	t.Helper()
	g := graph.New(n)
	for range n {
		g.AddNode(0, 0)
	}
	for _, e := range edges {
		if err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	return g.Freeze()
}

// TestFullRowHostileWorlds runs checkFullRow from every source of worlds
// built to break a chain walk. The parents need only pass the audit where
// equally near predecessors tie; in "nearer predecessor" they must be the
// heap search's.
func TestFullRowHostileWorlds(t *testing.T) {
	for _, c := range []struct {
		name        string
		n           int
		edges       [][3]float64
		sameParents bool
	}{
		// Hub 0 with three zero-weight chains, two of them joined at 7.
		{"zero-weight chains", 9, [][3]float64{
			{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}, {4, 5, 0}, {5, 7, 0},
			{0, 6, 0}, {6, 7, 0}, {7, 8, 1},
		}, false},
		// Ring 0-1-2-3-4-0 of zero weights through the degree-2 node 0,
		// with a spur at 2 and a second, weighted loop at 3.
		{"zero-weight cycle through a degree-2 node", 8, [][3]float64{
			{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 0, 0}, {2, 5, 1},
			{3, 6, 2}, {6, 7, 0}, {7, 3, 1},
		}, false},
		// One ring of degree-2 nodes and nothing else; odd and even ways
		// round meet at one node and at one edge.
		{"ring without a branch node", 7, [][3]float64{
			{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 4, 3}, {4, 5, 1}, {5, 6, 2}, {6, 0, 1},
		}, false},
		// A branch node with degree-1 spurs, one at the end of a chain, and
		// an isolated node (degree 0).
		{"degree-1 spurs", 9, [][3]float64{
			{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {3, 4, 1}, {4, 5, 1}, {5, 6, 0.5},
			{6, 7, 0.25},
		}, false},
		// A 6-node chain between branch nodes 0 and 7, each with a spur;
		// every chain node is a source in the middle of it.
		{"sources in the middle of a chain", 10, [][3]float64{
			{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 1}, {4, 5, 2}, {5, 6, 3}, {6, 7, 1},
			{0, 8, 5}, {7, 9, 5}, {0, 7, 17},
		}, false},
		// Two components: a chain-and-branch one and a ring.
		{"two components", 10, [][3]float64{
			{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 2}, {0, 4, 1},
			{5, 6, 1}, {6, 7, 2}, {7, 8, 3}, {8, 9, 4}, {9, 5, 5},
		}, false},
		// Weights 1e-12 and 1e12 side by side: fl(d + 1e-12) = d once d
		// is large, so whole chains tie.
		{"weights 1e-12 and 1e12", 9, [][3]float64{
			{0, 1, 1e12}, {1, 2, 1e-12}, {2, 3, 1e-12}, {3, 4, 1e12}, {0, 5, 1e-12},
			{5, 6, 1e12}, {6, 7, 1e-12}, {7, 4, 1e-12}, {4, 8, 1e-12}, {2, 6, 1e12},
		}, false},
		// From 0, node 2 lies at 15 both through chain node 1 (at 12) and
		// through branch node 3 (at 10): the heap settles 3 first, so 3
		// is 2's parent, though the walk from 0 reaches 2 through 1 first.
		{"nearer predecessor", 5, [][3]float64{
			{0, 1, 12}, {1, 2, 3}, {2, 3, 5}, {0, 3, 10}, {3, 4, 1},
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkFullRow(t, c.name, world(t, c.n, c.edges), true, c.sameParents)
		})
	}
}

// fuzzWeights are the weights a chain world's segments draw from: exact
// ties (0, small integers, halves), and 1e-12 next to 1e12.
var fuzzWeights = []float64{0, 1, 2, 0.5, 1e-12, 1e12, 3, 0.25}

// chainWorld decodes a small chain-heavy network: data[0] sets 1–8 base
// nodes; each (u, v, k) that follows joins base nodes u and v by a chain
// of k%4 new nodes, its k%4+1 segments weighted by the next bytes. A
// chain from a node back to itself is a loop — a whole ring when the node
// has nothing else — and base nodes nothing joins stay isolated.
func chainWorld(data []byte) *graph.CSR {
	if len(data) == 0 {
		return nil
	}
	base := 1 + int(data[0])%8
	data = data[1:]
	g := graph.New(base)
	for range base {
		g.AddNode(0, 0)
	}
	for len(data) >= 3 && g.NumNodes() < 64 {
		u, v, k := graph.NodeID(int(data[0])%base), graph.NodeID(int(data[1])%base), int(data[2])%4
		data = data[3:]
		if len(data) < k+1 || (u == v && k < 2) {
			break
		}
		prev := u
		for i := range k + 1 {
			next := v
			if i < k {
				next = g.AddNode(0, 0)
			}
			_ = g.AddEdge(prev, next, fuzzWeights[int(data[i])%len(fuzzWeights)]) // a duplicate is refused
			prev = next
		}
		data = data[k+1:]
	}
	return g.Freeze()
}

// FuzzFullRow holds FullRow, from every source of a small chain-heavy
// network, to the heap search bitwise, to Floyd–Warshall, and to the
// audit, whose fold of its parents must give its distances bitwise.
func FuzzFullRow(f *testing.F) {
	// Two hubs joined by three chains, one of zero weights, plus a loop.
	f.Add([]byte{2, 0, 1, 3, 1, 1, 1, 1, 0, 1, 2, 0, 0, 0, 0, 1, 2, 4, 5, 4, 0, 0, 2, 3, 2, 1})
	// One ring of 1e-12 and 1e12 segments on a lone node.
	f.Add([]byte{1, 0, 0, 3, 4, 5, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g := chainWorld(data); g != nil {
			checkFullRow(t, "chain world", g, true, false)
		}
	})
}

// TestFullRowMatchesHeapSearch is FuzzFullRow's property over seeded
// random chain worlds.
func TestFullRowMatchesHeapSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		data := make([]byte, 8+rng.Intn(80))
		rng.Read(data)
		checkFullRow(t, "chain world", chainWorld(data), true, false)
	}
}
