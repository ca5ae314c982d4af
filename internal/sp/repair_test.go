package sp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// sliceRow is a node-indexed row Repair writes in place.
type sliceRow []float64

func (r sliceRow) At(x graph.NodeID) float64                     { return r[x] }
func (r sliceRow) Set(x graph.NodeID, d float64, _ graph.NodeID) { r[x] = d }

// treeRow is a row that also keeps the parents Repair reports, starting
// from a fresh search's.
type treeRow struct {
	d   []float64
	par []graph.NodeID
}

func dijkstraTree(ws *Workspace, g *graph.CSR, src graph.NodeID) *treeRow {
	r := &treeRow{d: ws.DijkstraRow(g, src, nil), par: make([]graph.NodeID, g.NumNodes())}
	for x := range r.par {
		r.par[x] = ws.ParentOf(graph.NodeID(x))
	}
	return r
}

func (r *treeRow) At(x graph.NodeID) float64 { return r.d[x] }
func (r *treeRow) Set(x graph.NodeID, d float64, p graph.NodeID) {
	r.d[x], r.par[x] = d, p
}

// checkTree fails unless r's parents form a tree rooted at src over g —
// acyclic, tight at every finite node (d(x) = fl(d(p) + w(p, x)) bit for
// bit), parentless exactly at src and the unreachable nodes — whose values,
// folded from the root down through the parents alone, are want bit for
// bit.
func checkTree(t *testing.T, g *graph.CSR, src graph.NodeID, r *treeRow, want []float64, what string) {
	t.Helper()
	n := len(r.d)
	folded := make([]float64, n)
	done := make([]bool, n)
	folded[src], done[src] = 0, true
	var fold func(x graph.NodeID, hops int) float64
	fold = func(x graph.NodeID, hops int) float64 {
		if done[x] {
			return folded[x]
		}
		p := r.par[x]
		switch {
		case p == graph.Invalid:
			folded[x] = Unreachable
		case hops > n:
			t.Fatalf("%s: the parents of %d run in a cycle", what, x)
		default:
			w, ok := g.EdgeWeight(p, x)
			if !ok {
				t.Fatalf("%s: parent %d of %d is no neighbour", what, p, x)
			}
			folded[x] = fold(p, hops+1) + w
		}
		done[x] = true
		return folded[x]
	}
	for x := graph.NodeID(0); int(x) < n; x++ {
		if got := fold(x, 0); math.Float64bits(got) != math.Float64bits(want[x]) {
			t.Fatalf("%s: the tree folds to %v at %d, a fresh search gives %v", what, got, x, want[x])
		}
		p := r.par[x]
		switch {
		case x == src || r.d[x] == Unreachable:
			if p != graph.Invalid {
				t.Fatalf("%s: node %d (value %v) has parent %d", what, x, r.d[x], p)
			}
		case p == graph.Invalid:
			t.Fatalf("%s: finite node %d has no parent", what, x)
		default:
			if w, _ := g.EdgeWeight(p, x); math.Float64bits(r.d[p]+w) != math.Float64bits(r.d[x]) {
				t.Fatalf("%s: parent %d of %d is not tight: %v + %v ≠ %v", what, p, x, r.d[p], w, r.d[x])
			}
		}
	}
}

// repairWeights is the palette edges draw from: zeros, integer ties,
// fractions whose sums round, and weights from 1e-12 to 1e12, where small
// weights vanish into large distances.
var repairWeights = []float64{0, 1, 2, 3, 4, 0.1, 0.2, 0.3, 0.7, 1e-12, 3e-12, 1e12, 1e12 + 1, 5e11}

// checkRepairs decodes a small graph and a sequence of re-weightings from
// data, repairs every source's row through each step, and fails unless each
// repaired row is bitwise the fresh DijkstraRow of the network after the
// step, and the parents Repair reported form a tight tree that folds to it
// (checkTree). Layout: node count, edge count, (u, v, weight) per edge, then
// (edge, weight) per step; indices wrap and weights index repairWeights.
func checkRepairs(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n := 2 + int(data[0])%11
	m := int(data[1]) % (3 * n)
	data = data[2:]
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(float64(i), 0)
	}
	var edges [][2]graph.NodeID
	for ; m > 0 && len(data) >= 3; m-- {
		u, v := graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)
		w := repairWeights[int(data[2])%len(repairWeights)]
		data = data[3:]
		if g.AddEdge(u, v, w) == nil {
			edges = append(edges, [2]graph.NodeID{u, v})
		}
	}
	if len(edges) == 0 {
		return
	}
	net := g.Freeze()
	ws, fresh := NewWorkspace(n), NewWorkspace(n)
	rows := make([]*treeRow, n)
	for s := range rows {
		rows[s] = dijkstraTree(fresh, net, graph.NodeID(s))
	}
	for step := 0; len(data) >= 2; step++ {
		e := edges[int(data[0])%len(edges)]
		wNew := repairWeights[int(data[1])%len(repairWeights)]
		data = data[2:]
		next := net.WithPrivateEdges()
		wOld, err := next.SetEdgeWeight(e[0], e[1], wNew)
		if err != nil {
			t.Fatal(err)
		}
		st := Step{G: next, U: e[0], V: e[1], Old: wOld, New: wNew}
		for s, row := range rows {
			ws.Repair(st, graph.NodeID(s), row)
			want := fresh.DijkstraRow(next, graph.NodeID(s), nil)
			for x := range want {
				if math.Float64bits(row.d[x]) != math.Float64bits(want[x]) {
					t.Fatalf("step %d, (%d, %d) %v → %v: row %d at %d repaired to %v, a fresh search gives %v",
						step, e[0], e[1], wOld, wNew, s, x, row.d[x], want[x])
				}
			}
			checkTree(t, next, graph.NodeID(s), row, want,
				fmt.Sprintf("step %d, (%d, %d) %v → %v, row %d", step, e[0], e[1], wOld, wNew, s))
		}
		net = next
	}
}

// FuzzRepair holds Repair to bitwise equality with a fresh Dijkstra over
// arbitrary small graphs and re-weighting sequences.
func FuzzRepair(f *testing.F) {
	// A path 0-1-2-3-4-5 (every edge a bridge, integer weights) whose
	// middle bridge goes to 0 and back, then to 1e12 and back.
	f.Add([]byte{4, 5, 0, 1, 1, 1, 2, 2, 2, 3, 1, 3, 4, 3, 4, 5, 2,
		2, 0, 2, 1, 2, 11, 2, 1})
	// A 4-cycle with a chord, all weight 1 (exact ties everywhere), plus a
	// pendant 1e-12 edge; re-weights to 0, 2 and back.
	f.Add([]byte{3, 6, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1, 0, 2, 1, 3, 4, 9,
		4, 0, 0, 1, 0, 2, 4, 2, 1, 4, 1})
	f.Fuzz(checkRepairs)
}

// TestRepairMatchesDijkstra is FuzzRepair's property over seeded random
// inputs, so every test run covers it.
func TestRepairMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		checkRepairs(t, data)
	}
}

// countingRow counts the writes Repair makes.
type countingRow struct {
	sliceRow
	sets int
}

func (r *countingRow) Set(x graph.NodeID, d float64, p graph.NodeID) {
	r.sets++
	r.sliceRow.Set(x, d, p)
}

// TestRepairSlackEdgeIsFree pins the O(1) exits: raising an edge no
// shortest path uses, or lowering one that still improves nothing,
// re-settles and writes nothing.
func TestRepairSlackEdgeIsFree(t *testing.T) {
	g := fig1(t)
	net := g.Freeze()
	row := &countingRow{sliceRow: NewWorkspace(7).DijkstraRow(net, 0, nil)}
	// (1, 3) at 9 is slack from v1: dist(v4) = 8 comes round the other way.
	for _, w := range []float64{20, 8.5} {
		next := net.WithPrivateEdges()
		if _, err := next.SetEdgeWeight(1, 3, w); err != nil {
			t.Fatal(err)
		}
		st := Step{G: next, U: 1, V: 3, Old: 9, New: w}
		if k := NewWorkspace(7).Repair(st, 0, row); k != 0 || row.sets != 0 {
			t.Fatalf("re-weighting the slack edge to %v re-settled %d nodes with %d writes", w, k, row.sets)
		}
	}
}

// TestRepairResettlesExactlyTheFarSide pins the count Repair returns on a
// path, where every edge is a bridge: re-weighting edge (k, k+1) either
// way re-settles exactly the nodes across it from the source.
func TestRepairResettlesExactlyTheFarSide(t *testing.T) {
	const n = 9
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(float64(i), 0)
		if i > 0 {
			g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 2)
		}
	}
	net := g.Freeze()
	ws := NewWorkspace(n)
	for k := 0; k+1 < n; k++ {
		for _, w := range []float64{3, 1} {
			next := net.WithPrivateEdges()
			if _, err := next.SetEdgeWeight(graph.NodeID(k), graph.NodeID(k+1), w); err != nil {
				t.Fatal(err)
			}
			st := Step{G: next, U: graph.NodeID(k), V: graph.NodeID(k + 1), Old: 2, New: w}
			for s := 0; s < n; s++ {
				far := n - 1 - k // nodes k+1 … n-1
				if s > k {
					far = k + 1 // nodes 0 … k
				}
				row := sliceRow(ws.DijkstraRow(net, graph.NodeID(s), nil))
				if got := ws.Repair(st, graph.NodeID(s), row); got != far {
					t.Errorf("edge (%d, %d) 2 → %v from %d re-settled %d nodes, want %d", k, k+1, w, s, got, far)
				}
			}
		}
	}
}
