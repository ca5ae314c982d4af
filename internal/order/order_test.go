package order

import (
	"math"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// gridGraph builds an s×s grid network with unit edge weights: a good
// stand-in for a road network with strong spatial structure.
func gridGraph(s int) *graph.Graph {
	g := graph.New(s * s)
	for r := 0; r < s; r++ {
		for c := 0; c < s; c++ {
			g.AddNode(float64(c)*100, float64(r)*100)
		}
	}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*s + c) }
	for r := 0; r < s; r++ {
		for c := 0; c < s; c++ {
			if c+1 < s {
				g.MustAddEdge(id(r, c), id(r, c+1), 100)
			}
			if r+1 < s {
				g.MustAddEdge(id(r, c), id(r+1, c), 100)
			}
		}
	}
	return g
}

func TestAllMethodsArePermutations(t *testing.T) {
	g := gridGraph(12)
	for _, m := range Methods() {
		o, err := Compute(g.Freeze(), m, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(o.Seq) != g.NumNodes() || len(o.Pos) != g.NumNodes() {
			t.Fatalf("%s: wrong lengths", m)
		}
		for pos, v := range o.Seq {
			if o.Pos[v] != pos {
				t.Fatalf("%s: Pos/Seq inconsistent at %d", m, pos)
			}
		}
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	g := gridGraph(3)
	if _, err := Compute(g.Freeze(), Method("zorder"), 0); err == nil {
		t.Error("unknown method accepted")
	}
	if Method("zorder").Valid() {
		t.Error("zorder reported valid")
	}
	for _, m := range Methods() {
		if !m.Valid() {
			t.Errorf("%s reported invalid", m)
		}
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := Compute(graph.New(0).Freeze(), Hilbert, 0); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := gridGraph(9)
	for _, m := range Methods() {
		a, err := Compute(g.Freeze(), m, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compute(g.Freeze(), m, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Seq {
			if a.Seq[i] != b.Seq[i] {
				t.Fatalf("%s: non-deterministic at %d", m, i)
			}
		}
	}
}

func TestRandomSeedMatters(t *testing.T) {
	g := gridGraph(9)
	a, _ := Compute(g.Freeze(), Random, 1)
	b, _ := Compute(g.Freeze(), Random, 2)
	same := true
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical random orderings")
	}
}

func TestBFSOrderStartsAtZeroAndIsLevelMonotone(t *testing.T) {
	g := gridGraph(8)
	o, _ := Compute(g.Freeze(), BFS, 0)
	if o.Seq[0] != 0 {
		t.Errorf("BFS starts at %d, want 0", o.Seq[0])
	}
	// Hop distance from node 0 must be non-decreasing along the sequence.
	hops := bfsHops(g, 0)
	prev := -1
	for _, v := range o.Seq {
		if hops[v] < prev {
			t.Fatalf("BFS order not level-monotone at node %d", v)
		}
		prev = hops[v]
	}
}

func bfsHops(g *graph.Graph, src graph.NodeID) []int {
	h := make([]int, g.NumNodes())
	for i := range h {
		h[i] = -1
	}
	h[src] = 0
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if h[e.To] < 0 {
				h[e.To] = h[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return h
}

func TestDFSParentAdjacency(t *testing.T) {
	// In a DFS order over a connected graph, each node after the first must
	// be adjacent to some earlier node (tree property of DFS forests).
	g := gridGraph(7)
	o, _ := Compute(g.Freeze(), DFS, 0)
	placed := make([]bool, g.NumNodes())
	placed[o.Seq[0]] = true
	for _, v := range o.Seq[1:] {
		ok := false
		for _, e := range g.Neighbors(v) {
			if placed[e.To] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("DFS node %d not adjacent to any earlier node", v)
		}
		placed[v] = true
	}
}

func TestDisconnectedGraphCoverage(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(3, 4, 1)
	for _, m := range []Method{BFS, DFS} {
		o, err := Compute(g.Freeze(), m, 0)
		if err != nil {
			t.Fatalf("%s on disconnected graph: %v", m, err)
		}
		if len(o.Seq) != 6 {
			t.Fatalf("%s covered %d of 6 nodes", m, len(o.Seq))
		}
	}
}

// TestSpatialLocalityRanking reproduces the mechanism behind Fig 10: the
// locality-preserving orderings (hbt, kd, dfs) must place spatially close
// nodes much closer in the sequence than rand does.
func TestSpatialLocalityRanking(t *testing.T) {
	g := gridGraph(20)
	spread := func(m Method) float64 {
		o, err := Compute(g.Freeze(), m, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Average |pos(u) - pos(v)| over all edges.
		total, count := 0.0, 0
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Neighbors(graph.NodeID(v)) {
				if e.To > graph.NodeID(v) {
					total += math.Abs(float64(o.Pos[v] - o.Pos[e.To]))
					count++
				}
			}
		}
		return total / float64(count)
	}
	randSpread := spread(Random)
	for _, m := range []Method{Hilbert, KD, DFS, BFS} {
		s := spread(m)
		if s >= randSpread {
			t.Errorf("%s spread %v not better than random %v", m, s, randSpread)
		}
	}
	// And the locality-preserving three must beat BFS (the second worst in
	// the paper).
	bfsSpread := spread(BFS)
	for _, m := range []Method{Hilbert, KD, DFS} {
		if s := spread(m); s >= bfsSpread {
			t.Errorf("%s spread %v not better than bfs %v", m, s, bfsSpread)
		}
	}
}

func TestHilbertTieBreakStable(t *testing.T) {
	// Co-located nodes (same Hilbert key) must order by ID.
	g := graph.New(3)
	g.AddNode(5, 5)
	g.AddNode(5, 5)
	g.AddNode(5, 5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	o, err := Compute(g.Freeze(), Hilbert, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range o.Seq {
		if int(v) != i {
			t.Fatalf("co-located nodes not ID-ordered: %v", o.Seq)
		}
	}
}

func TestLargeRandomGraphAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New(500)
	for i := 0; i < 500; i++ {
		g.AddNode(rng.Float64()*10000, rng.Float64()*10000)
	}
	perm := rng.Perm(500)
	for i := 1; i < 500; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 1)
	}
	for _, m := range Methods() {
		if _, err := Compute(g.Freeze(), m, 9); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}
