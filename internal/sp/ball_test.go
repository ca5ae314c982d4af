package sp

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// checkBall holds one DijkstraBall to the two searches it replaces:
// distance, path and settled slice equal, and every settled node's distance
// and parent equal.
func checkBall(t *testing.T, name string, view graph.View, src, dst graph.NodeID, slack float64) {
	t.Helper()
	two, one := NewWorkspace(view.NumNodes()), NewWorkspace(view.NumNodes())
	wantD, wantP := two.DijkstraTo(view, src, dst)
	gotD, gotP, gotS := one.DijkstraBall(view, src, dst, slack)
	if gotD != wantD || !slices.Equal(gotP, wantP) {
		t.Fatalf("%s %d→%d: ball (%g, %v), DijkstraTo (%g, %v)", name, src, dst, gotD, gotP, wantD, wantP)
	}
	if wantP == nil {
		if gotS != nil {
			t.Fatalf("%s %d→%d: unreachable target but %d nodes settled", name, src, dst, len(gotS))
		}
		return
	}
	wantS := two.DijkstraBounded(view, src, wantD*slack)
	if !slices.Equal(gotS, wantS) {
		t.Fatalf("%s %d→%d: settle order differs: %d nodes vs %d", name, src, dst, len(gotS), len(wantS))
	}
	for _, v := range wantS {
		if one.DistOf(v) != two.DistOf(v) || one.ParentOf(v) != two.ParentOf(v) {
			t.Fatalf("%s %d→%d: node %d labelled (%g, %d), want (%g, %d)", name, src, dst, v,
				one.DistOf(v), one.ParentOf(v), two.DistOf(v), two.ParentOf(v))
		}
	}
}

// TestBallMatchesTwoSearches: the single search is the two searches, on
// random graphs, on unit-weight grids where every distance ties with many
// others, for a target next to the source and for one out of reach.
func TestBallMatchesTwoSearches(t *testing.T) {
	const slack = 1 + 4e-9
	rng := rand.New(rand.NewSource(11))
	for seed := int64(0); seed < 6; seed++ {
		g := randomWorkspaceGraph(t, 200+int(seed)*40, 180, seed)
		view := g.Freeze()
		for k := 0; k < 40; k++ {
			src, dst := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			checkBall(t, "random", view, src, dst, slack)
			checkBall(t, "random, wide slack", view, src, dst, 1.5)
		}
		// A target adjacent to the source: the ball is a handful of nodes.
		for _, e := range view.Neighbors(0) {
			checkBall(t, "adjacent", view, 0, e.To, slack)
		}
	}

	const side = 17
	grid := graph.New(side * side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			grid.AddNode(float64(x), float64(y))
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := graph.NodeID(y*side + x)
			if x+1 < side {
				grid.MustAddEdge(v, v+1, 1)
			}
			if y+1 < side {
				grid.MustAddEdge(v, v+side, 1)
			}
		}
	}
	view := grid.Freeze()
	for k := 0; k < 60; k++ {
		checkBall(t, "unit grid", view, graph.NodeID(rng.Intn(side*side)), graph.NodeID(rng.Intn(side*side)), slack)
	}
	checkBall(t, "unit grid, corner to corner", view, 0, side*side-1, slack)
	checkBall(t, "source is target", view, 5, 5, slack)

	// Two components: a target the source cannot reach.
	split := graph.New(6)
	for i := 0; i < 6; i++ {
		split.AddNode(float64(i), 0)
	}
	split.MustAddEdge(0, 1, 1)
	split.MustAddEdge(1, 2, 2)
	split.MustAddEdge(3, 4, 1)
	split.MustAddEdge(4, 5, 1)
	checkBall(t, "unreachable", split.Freeze(), 0, 4, slack)
	checkBall(t, "reachable beside an island", split.Freeze(), 0, 2, slack)
}

// swapHeap is the heap as it was before the hole sift — every level of a
// sift a swap, two item writes and two position writes — kept as the
// reference the carried-item sift must pop identically to, ties included.
type swapHeap struct {
	items []heapItem
	pos   []int32
}

func (h *swapHeap) push(node graph.NodeID, key float64) {
	h.items = append(h.items, heapItem{node, key})
	i := len(h.items) - 1
	h.pos[node] = int32(i + 1)
	h.up(i)
}

func (h *swapHeap) pop() (graph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top.node] = 0
	if last > 0 {
		h.down(0)
	}
	return top.node, top.key
}

func (h *swapHeap) decreaseKey(node graph.NodeID, key float64) {
	i := int(h.pos[node]) - 1
	if i < 0 || h.items[i].key <= key {
		return
	}
	h.items[i].key = key
	h.up(i)
}

func (h *swapHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= h.items[i].key {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].key < h.items[small].key {
			small = l
		}
		if r < n && h.items[r].key < h.items[small].key {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *swapHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = int32(i + 1)
	h.pos[h.items[j].node] = int32(j + 1)
}

// TestHeapMatchesSwapHeap runs random push / decrease-key / pop scripts —
// keys drawn from a handful of values, so ties are the rule — through both
// heaps and demands the same pops, and after every step the same layout.
func TestHeapMatchesSwapHeap(t *testing.T) {
	const n = 400
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, ref := NewHeap(n), &swapHeap{pos: make([]int32, n)}
		keys := 3 + rng.Intn(40)
		for step := 0; step < 4000; step++ {
			node := graph.NodeID(rng.Intn(n))
			key := float64(rng.Intn(keys))
			switch op := rng.Intn(10); {
			case op < 5 && !h.Contains(node):
				h.Push(node, key)
				ref.push(node, key)
			case op < 8:
				h.DecreaseKey(node, key)
				ref.decreaseKey(node, key)
			case h.Len() > 0:
				gn, gk := h.Pop()
				wn, wk := ref.pop()
				if gn != wn || gk != wk {
					t.Fatalf("seed %d step %d: popped (%d, %g), reference (%d, %g)", seed, step, gn, gk, wn, wk)
				}
			}
			if !slices.Equal(h.items, ref.items) || !slices.Equal(h.pos[:n], ref.pos) {
				t.Fatalf("seed %d step %d: heap layout diverged from the reference", seed, step)
			}
		}
	}
}

// BenchmarkBall is one provider-side search of a DIJ or LDM proof on a
// road-like network of the repository benchmark's size.
func BenchmarkBall(b *testing.B) {
	const n = 7217
	rng := rand.New(rand.NewSource(1))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), 1+rng.Float64()*10)
	}
	for i := 0; i < n/10; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*10)
		}
	}
	view := g.Freeze()
	w := NewWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	settled := 0
	for i := 0; i < b.N; i++ {
		_, _, s := w.DijkstraBall(view, graph.NodeID(i%n), graph.NodeID((i*31+7)%n), 1+4e-9)
		settled += len(s)
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}
