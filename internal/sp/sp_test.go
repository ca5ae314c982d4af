package sp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/graph"
)

// fig1 builds the paper's Figure 1 network; shortest v1→v4 path is
// v1,v3,v5,v6,v4 with cost 8 (NodeIDs are paper indices minus one).
func fig1(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(7)
	for i := 0; i < 7; i++ {
		g.AddNode(float64(i), 0)
	}
	for _, e := range []struct {
		u, v int
		w    float64
	}{
		{0, 1, 1}, {1, 3, 9}, {0, 2, 2}, {2, 4, 3},
		{4, 5, 2}, {5, 3, 1}, {1, 6, 2}, {6, 5, 5},
	} {
		g.MustAddEdge(graph.NodeID(e.u), graph.NodeID(e.v), e.w)
	}
	return g
}

func TestDijkstraFig1(t *testing.T) {
	g := fig1(t)
	w := NewWorkspace(g.NumNodes())
	w.FullRow(g.Freeze(), 0)
	want := []float64{0, 1, 2, 8, 5, 7, 3}
	for v := range want {
		if d := w.DistOf(graph.NodeID(v)); d != want[v] {
			t.Errorf("dist(v1, v%d) = %v, want %v", v+1, d, want[v])
		}
	}
	p := w.PathTo(3)
	wantPath := graph.Path{0, 2, 4, 5, 3}
	if len(p) != len(wantPath) {
		t.Fatalf("path %v, want %v", p, wantPath)
	}
	for i := range p {
		if p[i] != wantPath[i] {
			t.Fatalf("path %v, want %v", p, wantPath)
		}
	}
}

func TestDijkstraToEarlyStop(t *testing.T) {
	g := fig1(t)
	d, p := DijkstraTo(g, 0, 3)
	if d != 8 {
		t.Errorf("dist = %v, want 8", d)
	}
	if err := p.Validate(g, 0, 3); err != nil {
		t.Errorf("path invalid: %v", err)
	}
	if got, _ := p.DistIn(g); got != 8 {
		t.Errorf("path distance %v, want 8", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddNode(0, 0)
	g.AddNode(1, 0)
	g.AddNode(2, 0)
	g.MustAddEdge(0, 1, 5)
	d, p := DijkstraTo(g, 0, 2)
	if d != Unreachable || p != nil {
		t.Errorf("expected unreachable, got %v %v", d, p)
	}
	w := NewWorkspace(g.NumNodes())
	w.FullRow(g.Freeze(), 0)
	if w.PathTo(2) != nil {
		t.Error("PathTo unreachable node should be nil")
	}
}

func TestDijkstraBoundedSettlesExactlyWithinBound(t *testing.T) {
	g := fig1(t)
	full := NewWorkspace(g.NumNodes()).DijkstraRow(g.Freeze(), 0, nil)
	for _, bound := range []float64{0, 2, 3, 5, 7, 8, 100} {
		tr, settled := DijkstraBounded(g, 0, bound)
		want := map[graph.NodeID]bool{}
		for v, d := range full {
			if d <= bound {
				want[graph.NodeID(v)] = true
			}
		}
		if len(settled) != len(want) {
			t.Errorf("bound %v: settled %d nodes, want %d", bound, len(settled), len(want))
		}
		prev := -1.0
		for _, v := range settled {
			if !want[v] {
				t.Errorf("bound %v: settled %d outside bound", bound, v)
			}
			if tr.Dist[v] != full[v] {
				t.Errorf("bound %v: dist[%d] = %v, want %v", bound, v, tr.Dist[v], full[v])
			}
			if tr.Dist[v] < prev {
				t.Errorf("bound %v: settled order not monotone", bound)
			}
			prev = tr.Dist[v]
		}
		// Unsettled nodes must read Unreachable.
		for v := 0; v < g.NumNodes(); v++ {
			if !want[graph.NodeID(v)] && tr.Dist[v] != Unreachable {
				t.Errorf("bound %v: unsettled node %d has dist %v", bound, v, tr.Dist[v])
			}
		}
	}
}

func TestFloydWarshallFig1(t *testing.T) {
	g := fig1(t)
	d := FloydWarshall(g)
	if d[0][3] != 8 {
		t.Errorf("FW dist(v1,v4) = %v, want 8", d[0][3])
	}
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("FW dist(%d,%d) = %v, want 0", i, i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Errorf("FW asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// randomGraph builds a random connected graph with n nodes.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 1+rng.Float64()*99)
	}
	for k := 0; k < n; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*99)
		}
	}
	return g
}

// TestAllPairsAgainstFloydWarshall is the oracle cross-validation promised
// in DESIGN.md: repeated Dijkstra must equal Floyd–Warshall exactly on
// random graphs (same additions in different order can differ in the last
// ulp, so compare with a tiny tolerance).
func TestAllPairsAgainstFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40))
		fw := FloydWarshall(g)
		dj := make([][]float64, g.NumNodes())
		// Rows arrive concurrently, each into its own slot.
		AllPairsRows(g.Freeze(), func(src graph.NodeID, dist []float64) { dj[src] = dist })
		for i := range fw {
			for j := range fw {
				a, b := fw[i][j], dj[i][j]
				if a == Unreachable || b == Unreachable {
					if a != b {
						t.Logf("seed %d: (%d,%d) reachability differs", seed, i, j)
						return false
					}
					continue
				}
				if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					t.Logf("seed %d: (%d,%d) %v vs %v", seed, i, j, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHeapBasics(t *testing.T) {
	h := NewHeap(4)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(1, 5)
	h.Push(2, 3)
	h.Push(3, 8)
	if h.Peek() != 3 {
		t.Errorf("Peek = %v, want 3", h.Peek())
	}
	h.DecreaseKey(3, 1)
	if !h.Contains(3) || h.Contains(9) {
		t.Error("Contains wrong")
	}
	v, k := h.Pop()
	if v != 3 || k != 1 {
		t.Errorf("Pop = (%d,%v), want (3,1)", v, k)
	}
	h.DecreaseKey(1, 10) // not smaller: no-op
	v, k = h.Pop()
	if v != 2 || k != 3 {
		t.Errorf("Pop = (%d,%v), want (2,3)", v, k)
	}
	v, k = h.Pop()
	if v != 1 || k != 5 {
		t.Errorf("Pop = (%d,%v), want (1,5)", v, k)
	}
	if h.Len() != 0 {
		t.Error("heap not empty at end")
	}
}

func TestHeapSortsRandomKeysProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		h := NewHeap(n)
		keys := make([]float64, n)
		for i := 0; i < n; i++ {
			keys[i] = rng.Float64() * 1000
			h.Push(graph.NodeID(i), keys[i]+500) // push inflated
		}
		for i := 0; i < n; i++ {
			h.DecreaseKey(graph.NodeID(i), keys[i]) // then decrease to real
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			_, k := h.Pop()
			if k != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
