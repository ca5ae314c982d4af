package hiti

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/geom"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/order"
	"github.com/authhints/spv/internal/sp"
)

// spatialGraph builds a connected graph whose edges mostly join nearby
// nodes, like a road network.
func spatialGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*10000, rng.Float64()*10000)
	}
	// Connect each node to its nearest already-placed node (spatial MST-ish),
	// then add a few extra local edges.
	for v := 1; v < n; v++ {
		best, bestD := 0, math.MaxFloat64
		for u := 0; u < v; u++ {
			if d := g.Euclid(graph.NodeID(u), graph.NodeID(v)); d < bestD {
				best, bestD = u, d
			}
		}
		g.MustAddEdge(graph.NodeID(best), graph.NodeID(v), bestD+1)
	}
	for k := 0; k < n/4; k++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, g.Euclid(u, v)+1)
		}
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := spatialGraph(rng, 200)
	h, err := Build(g.Freeze(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if h.Grid.NumCells() != 25 {
		t.Errorf("grid has %d cells, want 25", h.Grid.NumCells())
	}
	if h.NumBorders() == 0 {
		t.Fatal("no border nodes found")
	}
	// Border definition: adjacent to a node in another cell.
	for v := 0; v < g.NumNodes(); v++ {
		want := false
		for _, e := range g.Neighbors(graph.NodeID(v)) {
			if h.CellOf[e.To] != h.CellOf[v] {
				want = true
				break
			}
		}
		if h.IsBorder[v] != want {
			t.Errorf("node %d border flag %v, want %v", v, h.IsBorder[v], want)
		}
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := Build(graph.New(0).Freeze(), 25); err == nil {
		t.Error("empty graph accepted")
	}
	g := graph.New(1)
	g.AddNode(1, 1)
	if _, err := Build(g.Freeze(), 0); err == nil {
		t.Error("p=0 accepted")
	}
}

// TestHyperEdgeWeightsAreExactDistances: W*(u,v) must equal dist(u,v)
// computed independently.
func TestHyperEdgeWeightsAreExactDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := spatialGraph(rng, 150)
	h, err := Build(g.Freeze(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		u := h.Borders[rng.Intn(h.NumBorders())]
		v := h.Borders[rng.Intn(h.NumBorders())]
		got, ok := h.HyperEdge(u, v)
		if !ok {
			t.Fatalf("HyperEdge(%d,%d) missing", u, v)
		}
		want, _ := sp.DijkstraTo(g, u, v)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("W*(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	if _, ok := h.HyperEdge(u0NonBorder(h, g), h.Borders[0]); ok {
		t.Error("HyperEdge with non-border endpoint succeeded")
	}
}

func u0NonBorder(h *Hyper, g *graph.Graph) graph.NodeID {
	for v := 0; v < g.NumNodes(); v++ {
		if !h.IsBorder[v] {
			return graph.NodeID(v)
		}
	}
	return 0
}

// TestTheorem2BorderPassage verifies the paper's Theorem 2 mechanically: for
// random (vs, vt) in different cells, min over border pairs of
// dcell(vs,bs) + W*(bs,bt) + dcell(bt,vt) equals dist(vs,vt), where dcell is
// restricted to intra-cell edges.
func TestTheorem2BorderPassage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := spatialGraph(rng, 60+rng.Intn(100))
		h, err := Build(g.Freeze(), 9+rng.Intn(3)*8)
		if err != nil {
			return false
		}
		vs := graph.NodeID(rng.Intn(g.NumNodes()))
		vt := graph.NodeID(rng.Intn(g.NumNodes()))
		want, _ := sp.DijkstraTo(g, vs, vt)

		got := coarseMin(g, h, vs, vt)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Logf("seed %d: coarse %v, want %v (cells %d,%d)", seed, got, want, h.CellOf[vs], h.CellOf[vt])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// coarseMin mirrors the client-side coarse computation: Dijkstra restricted
// to intra-cell edges of the source and target cells, stitched with
// hyper-edges.
func coarseMin(g *graph.Graph, h *Hyper, vs, vt graph.NodeID) float64 {
	cs, ct := h.CellOf[vs], h.CellOf[vt]
	dS := cellDijkstra(g, h, cs, vs)
	dT := cellDijkstra(g, h, ct, vt)
	best := math.MaxFloat64
	if cs == ct {
		if d, ok := dS[vt]; ok && d < best {
			best = d
		}
	}
	for _, bs := range h.BordersOf(cs) {
		ds, ok := dS[bs]
		if !ok {
			continue
		}
		for _, bt := range h.BordersOf(ct) {
			dt, ok := dT[bt]
			if !ok {
				continue
			}
			w, ok := h.HyperEdge(bs, bt)
			if !ok || w == sp.Unreachable {
				continue
			}
			if ds+w+dt < best {
				best = ds + w + dt
			}
		}
	}
	return best
}

// cellDijkstra runs Dijkstra from src using only edges whose endpoints are
// both in cell c.
func cellDijkstra(g *graph.Graph, h *Hyper, c geom.CellID, src graph.NodeID) map[graph.NodeID]float64 {
	if h.CellOf[src] != c {
		return nil
	}
	dist := map[graph.NodeID]float64{src: 0}
	done := map[graph.NodeID]bool{}
	for {
		var u graph.NodeID
		best := math.MaxFloat64
		found := false
		for v, d := range dist {
			if !done[v] && d < best {
				best, u, found = d, v, true
			}
		}
		if !found {
			return dist
		}
		done[u] = true
		for _, e := range g.Neighbors(u) {
			if h.CellOf[e.To] != c {
				continue
			}
			if nd := best + e.W; nd < distOr(dist, e.To) {
				dist[e.To] = nd
			}
		}
	}
}

func distOr(m map[graph.NodeID]float64, v graph.NodeID) float64 {
	if d, ok := m[v]; ok {
		return d
	}
	return math.MaxFloat64
}

// allEntries is every hyper-edge entry of h, in leaf order.
func allEntries(h *Hyper) []mbt.Entry { return h.AppendEntries(nil, 0, h.NumHyperEdges()) }

// TestAppendEntriesRanges: every range is the matching slice of the whole
// entry list, which is strictly increasing by key and puts each border
// pair at its LeafIndex — including worlds whose cells hold no border.
func TestAppendEntriesRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cells := range []int{4, 16, 64} {
		g := spatialGraph(rng, 120)
		h, err := Build(g.Freeze(), cells)
		if err != nil {
			t.Fatal(err)
		}
		all := allEntries(h)
		n := h.NumHyperEdges()
		if len(all) != n {
			t.Fatalf("%d cells: %d entries, want %d", cells, len(all), n)
		}
		for i := 1; i < n; i++ {
			if all[i].Key <= all[i-1].Key {
				t.Fatalf("%d cells: entry %d does not follow entry %d", cells, i, i-1)
			}
		}
		for i, u := range h.Borders {
			for _, v := range h.Borders[i:] {
				if e := all[h.LeafIndex(u, v)]; e != h.entry(u, v) {
					t.Fatalf("%d cells: leaf %d holds %v, want pair (%d, %d)", cells, h.LeafIndex(u, v), e, u, v)
				}
			}
		}
		for lo := 0; lo < n; lo += 1 + rng.Intn(7) {
			hi := min(n, lo+rng.Intn(40))
			if got := h.AppendEntries(nil, lo, hi); !slices.Equal(got, all[lo:hi]) {
				t.Fatalf("%d cells: entries [%d, %d) differ from the whole list's", cells, lo, hi)
			}
		}
	}
}

func TestEntriesCoverAllPairsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := spatialGraph(rng, 80)
	h, err := Build(g.Freeze(), 16)
	if err != nil {
		t.Fatal(err)
	}
	entries := allEntries(h)
	if len(entries) != h.NumHyperEdges() {
		t.Fatalf("%d entries, want %d", len(entries), h.NumHyperEdges())
	}
	seen := map[uint64]bool{}
	for _, e := range entries {
		u := graph.NodeID((uint64(e.Key) >> nodeBits) & (MaxNodes - 1))
		v := graph.NodeID(uint64(e.Key) & (MaxNodes - 1))
		if seen[uint64(e.Key)] {
			t.Errorf("duplicate key (%d,%d)", u, v)
		}
		seen[uint64(e.Key)] = true
		if e.Key != HyperKey(u, v, h.CellOf[u], h.CellOf[v]) {
			t.Errorf("key for (%d,%d) not canonical", u, v)
		}
		// The canonical key may transpose (u, v); W*[i][j] and W*[j][i] come
		// from different Dijkstra runs and agree only up to float rounding.
		w, ok := h.HyperEdge(u, v)
		if !ok || math.Abs(w-e.Value) > 1e-9*(1+w) {
			t.Errorf("entry (%d,%d) value %v, HyperEdge %v ok=%v", u, v, e.Value, w, ok)
		}
	}
}

func TestHyperKeyCanonical(t *testing.T) {
	if HyperKey(5, 3, 2, 1) != HyperKey(3, 5, 1, 2) {
		t.Error("HyperKey not symmetric under swap")
	}
	if HyperKey(9, 2, 4, 4) != HyperKey(2, 9, 4, 4) {
		t.Error("HyperKey not symmetric within a cell")
	}
	// Cell ordering dominates node ordering.
	a := HyperKey(9, 2, 1, 7)
	b := HyperKey(2, 9, 7, 1)
	if a != b {
		t.Error("HyperKey not canonical across cells")
	}
	// Keys from the same cell pair must be contiguous: the cell-pair prefix
	// occupies the high bits.
	k1 := HyperKey(1, 2, 3, 5)
	k2 := HyperKey(7, 9, 3, 5)
	if k1>>uint(2*nodeBits) != k2>>uint(2*nodeBits) {
		t.Error("same cell pair produced different key prefixes")
	}
	k3 := HyperKey(1, 2, 3, 6)
	if k1>>uint(2*nodeBits) == k3>>uint(2*nodeBits) {
		t.Error("different cell pairs share a key prefix")
	}
}

func TestExtraRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := spatialGraph(rng, 60)
	h, err := Build(g.Freeze(), 25)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		extra := h.Extra(graph.NodeID(v))
		if len(extra) != ExtraSize {
			t.Fatalf("extra has %d bytes", len(extra))
		}
		cell, isBorder, err := DecodeExtra(extra)
		if err != nil {
			t.Fatal(err)
		}
		if cell != h.CellOf[v] || isBorder != h.IsBorder[v] {
			t.Errorf("node %d extra round trip (%d,%v), want (%d,%v)",
				v, cell, isBorder, h.CellOf[v], h.IsBorder[v])
		}
	}
	if _, _, err := DecodeExtra([]byte{1, 2}); err == nil {
		t.Error("truncated extra decoded")
	}
	if _, _, err := DecodeExtra([]byte{0, 0, 0, 0, 7}); err == nil {
		t.Error("bad border flag decoded")
	}
}

func TestMoreCellsMoreBorders(t *testing.T) {
	// Finer grids cut more edges, so the border count must not decrease.
	rng := rand.New(rand.NewSource(5))
	g := spatialGraph(rng, 300)
	prev := 0
	for _, p := range []int{4, 25, 100, 400} {
		h, err := Build(g.Freeze(), p)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumBorders() < prev {
			t.Errorf("p=%d has %d borders, fewer than coarser grid's %d", p, h.NumBorders(), prev)
		}
		prev = h.NumBorders()
	}
}

func TestSingleCellNoBorders(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := spatialGraph(rng, 40)
	h, err := Build(g.Freeze(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBorders() != 0 {
		t.Errorf("single cell has %d borders", h.NumBorders())
	}
	if len(allEntries(h)) != 0 {
		t.Error("single cell has hyper-edges")
	}
	// Same-cell coarse distance must still work (pure intra-cell Dijkstra).
	want, _ := sp.DijkstraTo(g, 0, 5)
	got := coarseMin(g, h, 0, 5)
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("single-cell coarse %v, want %v", got, want)
	}
}

func TestNodesOfPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := spatialGraph(rng, 120)
	h, err := Build(g.Freeze(), 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := geom.CellID(0); int(c) < h.Grid.NumCells(); c++ {
		nodes := h.NodesOf(c)
		total += len(nodes)
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1] >= nodes[i] {
				t.Fatalf("cell %d nodes not ascending", c)
			}
		}
		for _, v := range nodes {
			if h.CellOf[v] != c {
				t.Fatalf("node %d listed in wrong cell", v)
			}
		}
	}
	if total != g.NumNodes() {
		t.Errorf("cells cover %d nodes, want %d", total, g.NumNodes())
	}
}

// TestLeafOrderClosedForm is the property the sort-free tree rests on: over
// random networks and cell counts, Entries is strictly increasing by
// HyperKey, and LeafIndex — in either argument order — is each pair's
// position in it. The sweep must meet the layout's corner cases (one cell,
// cells with no border, cells with exactly one, pairs inside one cell) or
// it fails for lack of coverage. Moved, which carries indices to the patch
// path, is held to the same positions.
func TestLeafOrderClosedForm(t *testing.T) {
	var emptyCells, singleCells, sameCellPairs, oneCellWorlds int
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := spatialGraph(rng, 2+rng.Intn(140))
		p := []int{1, 2, 4, 9, 16, 49, 100, 400}[seed%8]
		net := g.Freeze()
		h, err := Build(net, p)
		if err != nil {
			t.Fatal(err)
		}
		if h.Grid.NumCells() == 1 {
			oneCellWorlds++
		}
		for c := 0; c < h.Grid.NumCells(); c++ {
			switch len(h.BordersOf(geom.CellID(c))) {
			case 0:
				emptyCells++
			case 1:
				singleCells++
			}
		}
		entries := allEntries(h)
		if len(entries) != h.NumHyperEdges() {
			t.Fatalf("seed %d p=%d: %d entries, want %d", seed, p, len(entries), h.NumHyperEdges())
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Key <= entries[i-1].Key {
				t.Fatalf("seed %d p=%d: entry %d key %d does not follow %d", seed, p, i, entries[i].Key, entries[i-1].Key)
			}
		}
		for i, u := range h.Borders {
			for _, v := range h.Borders[i:] {
				pos := h.LeafIndex(u, v)
				if rev := h.LeafIndex(v, u); rev != pos {
					t.Fatalf("seed %d p=%d: LeafIndex(%d,%d)=%d but (%d,%d)=%d", seed, p, u, v, pos, v, u, rev)
				}
				if pos < 0 || pos >= len(entries) {
					t.Fatalf("seed %d p=%d: LeafIndex(%d,%d)=%d outside [0,%d)", seed, p, u, v, pos, len(entries))
				}
				want := HyperKey(u, v, h.CellOf[u], h.CellOf[v])
				if entries[pos].Key != want {
					t.Fatalf("seed %d p=%d: leaf %d holds key %d, pair (%d,%d) has key %d", seed, p, pos, entries[pos].Key, u, v, want)
				}
				// u is the lower ID: the value is its row's, bit for bit.
				if got, row := entries[pos].Value, h.at(u, v); math.Float64bits(got) != math.Float64bits(row) {
					t.Fatalf("seed %d p=%d: leaf %d value %v, row %d says %v", seed, p, pos, got, i, row)
				}
				if u != v && h.CellOf[u] == h.CellOf[v] {
					sameCellPairs++
				}
			}
		}
		// Moved carries indices to the patch path: after random
		// re-weightings, every moved entry is its pair's leaf in the
		// repaired entry list.
		var steps []sp.Step
		for prev := net; len(steps) < 3 && net.NumEdges() > 0; {
			u := graph.NodeID(rng.Intn(net.NumNodes()))
			if adj := net.Neighbors(u); len(adj) > 0 {
				e := adj[rng.Intn(len(adj))]
				steps = append(steps, reweight(t, prev, u, e.To, e.W*[]float64{0, 0.5, 3}[rng.Intn(3)]))
				prev = steps[len(steps)-1].G
			}
		}
		if len(steps) == 0 {
			continue
		}
		patched, _, _ := fullRows(t, g, h).WithRepairedRows(steps)
		moved, _, _ := patched.Moved(h)
		after := allEntries(patched)
		for _, e := range moved {
			if int(e.Index) >= len(after) || after[e.Index] != e.Entry {
				t.Fatalf("seed %d p=%d: moved entry %+v is not leaf %d", seed, p, e.Entry, e.Index)
			}
		}
	}
	if oneCellWorlds == 0 || emptyCells == 0 || singleCells == 0 || sameCellPairs == 0 {
		t.Errorf("sweep missed a corner: %d one-cell worlds, %d empty cells, %d single-border cells, %d same-cell pairs",
			oneCellWorlds, emptyCells, singleCells, sameCellPairs)
	}
}

// TestCellPairAndMovedEntries holds the two entry producers the values'
// single home serves: CellPairEntries lists, for any two cells, exactly the
// leaves of the pairs between their borders — cs-major, each once — with
// the values Entries carries; Moved finds exactly the entries whose value
// differs, bit for bit, from another Hyper's over the same partition,
// whichever storage form that one has.
func TestCellPairAndMovedEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := spatialGraph(rng, 120)
	h, err := Build(g.Freeze(), 16)
	if err != nil {
		t.Fatal(err)
	}
	entries := allEntries(h)
	cells := h.Grid.NumCells()
	for cs := 0; cs < cells; cs++ {
		for ct := 0; ct < cells; ct++ {
			bs, bt := h.BordersOf(geom.CellID(cs)), h.BordersOf(geom.CellID(ct))
			want := len(bs) * len(bt)
			if cs == ct {
				want = len(bs) * (len(bs) + 1) / 2
			}
			got := h.CellPairEntries(geom.CellID(cs), geom.CellID(ct))
			if len(got) != want {
				t.Fatalf("cells (%d,%d): %d entries, want %d", cs, ct, len(got), want)
			}
			seen := map[uint32]bool{}
			for _, e := range got {
				if seen[e.Index] || entries[e.Index] != e.Entry {
					t.Fatalf("cells (%d,%d): entry %+v repeats or is not leaf %d", cs, ct, e.Entry, e.Index)
				}
				seen[e.Index] = true
			}
			if want > 0 && got[0].Index != uint32(h.LeafIndex(bs[0], bt[0])) {
				t.Fatalf("cells (%d,%d): not source-cell-major", cs, ct)
			}
		}
	}

	full := fullRows(t, g, h)
	if moved, _, fresh := full.Moved(h); len(moved) != 0 || fresh != rowSetBytes(full) {
		t.Fatalf("upgrading the storage form moved %d values on %d fresh bytes, want 0 on %d", len(moved), fresh, rowSetBytes(full))
	}
	// Stretch the edges around two borders: the moved entries are exactly
	// the pairs whose values differ, against either form.
	var steps []sp.Step
	net := full.net
	for _, b := range []graph.NodeID{full.Borders[1], full.Borders[len(full.Borders)-2]} {
		for _, e := range net.Neighbors(b) {
			steps = append(steps, reweight(t, net, b, e.To, e.W*4))
			net = steps[len(steps)-1].G
		}
	}
	before := rowsOf(full)
	patched, rows, _ := full.WithRepairedRows(steps)
	if rows == 0 {
		t.Fatal("stretching two borders' edges moved no row")
	}
	after := allEntries(patched)
	for _, old := range []*Hyper{h, full} {
		moved := old.movedAgainst(t, patched)
		want := 0
		for i, e := range after {
			if math.Float64bits(e.Value) != math.Float64bits(entries[i].Value) {
				want++
				if moved[uint32(i)] != e {
					t.Fatalf("entry %d moved to %+v, Moved reports %+v", i, e, moved[uint32(i)])
				}
			}
		}
		if len(moved) != want || want == 0 {
			t.Fatalf("%d entries moved, want %d", len(moved), want)
		}
	}
	// The writes landed on copies: the rows they started from still read
	// as the build did.
	if moved, _, _ := full.Moved(h); len(moved) != 0 || !slices.EqualFunc(before, rowsOf(full), slices.Equal) {
		t.Fatalf("repairing a copy moved %d of the original's values", len(moved))
	}
}

// movedAgainst is patched.Moved(old) keyed by leaf index. Each entry's
// ends must be the leaf positions of the entry's own borders.
func (old *Hyper) movedAgainst(t *testing.T, patched *Hyper) map[uint32]mbt.Entry {
	t.Helper()
	moved, ends, _ := patched.Moved(old)
	if len(ends) != 2*len(moved) {
		t.Fatalf("Moved reports %d ends for %d entries", len(ends), len(moved))
	}
	out := make(map[uint32]mbt.Entry, len(moved))
	for k, e := range moved {
		u, v := patched.seq[ends[2*k]], patched.seq[ends[2*k+1]]
		if patched.LeafIndex(u, v) != int(e.Index) {
			t.Fatalf("entry %d has ends %d and %d", e.Index, u, v)
		}
		out[e.Index] = e.Entry
	}
	return out
}

// reweight is the step re-weighting edge (u, v) of net to w, on a copy.
func reweight(t *testing.T, net *graph.CSR, u, v graph.NodeID, w float64) sp.Step {
	t.Helper()
	next := net.WithPrivateEdges()
	old, err := next.SetEdgeWeight(u, v, w)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Step{G: next, U: u, V: v, Old: old, New: w}
}

// rowsOf is every stored row of h, as WalkRow walks it.
func rowsOf(h *Hyper) [][]float64 {
	rows := make([][]float64, h.NumBorders())
	for i := range rows {
		h.WalkRow(i, func(_ graph.NodeID, d float64) error {
			rows[i] = append(rows[i], d)
			return nil
		})
	}
	return rows
}

// saved is a Hyper as a snapshot stores it: every W* row (AppendW), then
// every tree (AppendTree) when its rows are full.
type saved struct {
	full    bool
	borders int
	w       []float64
	tree    []uint16
}

func save(h *Hyper) saved {
	s := saved{full: h.HasFullRows(), borders: h.NumBorders()}
	for i := range s.borders {
		s.w = h.AppendW(s.w, i)
		if s.full {
			s.tree = h.AppendTree(s.tree, i)
		}
	}
	return s
}

// load rehydrates s over net, cut into p cells, in ord's leaf order.
func (s saved) load(net *graph.CSR, p int, ord *order.Ordering) (*Hyper, error) {
	w, tree := s.w, s.tree
	return Rehydrate(net, p, ord, s.full, s.borders, func(dst []float64) {
		w = w[copy(dst, w):]
	}, func(dst []uint16) {
		tree = tree[copy(dst, tree):]
	})
}

// sameTrees fails unless a and b hold the same tree slots and W* values,
// page for page.
func sameTrees(t *testing.T, a, b *Hyper, what string) {
	t.Helper()
	if len(a.tree) != len(b.tree) {
		t.Fatalf("%s: %d trees, want %d", what, len(b.tree), len(a.tree))
	}
	for i := range a.wb {
		for k := range a.wb[i] {
			if *a.wb[i][k] != *b.wb[i][k] {
				t.Fatalf("%s: row %d W* page %d differs", what, i, k)
			}
		}
	}
	for i := range a.tree {
		for k := range a.tree[i] {
			if *a.tree[i][k] != *b.tree[i][k] {
				t.Fatalf("%s: row %d tree page %d differs", what, i, k)
			}
		}
	}
}

// rowSetBytes is what one full row set of h occupies: every tree page and
// every W* page.
func rowSetBytes(h *Hyper) int {
	b := h.NumBorders()
	return b*len(h.tree[0])*pageBytes + b*len(h.wb[0])*wpageBytes
}

// fullRows upgrades h, built over g, to full rows in g's Hilbert leaf
// order.
func fullRows(t *testing.T, g *graph.Graph, h *Hyper) *Hyper {
	t.Helper()
	net := g.Freeze()
	ord, err := order.Compute(net, order.Hilbert, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := h.WithFullRows(net, ord)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// checkExact fails unless every row of h, folded from its tree, is
// bitwise the fresh DijkstraRow over net, and W* is bitwise Build's over
// net.
func checkExact(t *testing.T, h *Hyper, net *graph.CSR, cells int, what string) {
	t.Helper()
	ws := sp.NewWorkspace(net.NumNodes())
	for i, b := range h.Borders {
		want := ws.DijkstraRow(net, b, nil)
		if err := h.WalkRow(i, func(x graph.NodeID, d float64) error {
			if math.Float64bits(d) != math.Float64bits(want[x]) {
				return fmt.Errorf("row %d folds to %v at node %d, a fresh search gives %v", i, d, x, want[x])
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	fresh, err := Build(net, cells)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := allEntries(h), allEntries(fresh); !slices.EqualFunc(a, b, func(x, y mbt.Entry) bool {
		return x.Key == y.Key && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	}) {
		t.Fatalf("%s: W* differs from a fresh Build's", what)
	}
}

// TestPagedRowsShareUnchangedPages holds the tree store's copy-on-write
// contract on rows that span several pages: a repair copies exactly the
// tree and W* pages whose contents change and shares the rest, a step that
// moves nothing copies nothing, repaired rows fold bitwise to a fresh
// search's, and AppendW/AppendTree and Rehydrate round-trip both storage
// forms page for page — while a tree with a parent slot past its node's
// degree, or a parent cycle, fails Rehydrate.
func TestPagedRowsShareUnchangedPages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := spatialGraph(rng, 3*PageLen+17) // four pages per row, the last short
	net := g.Freeze()
	h, err := Build(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := order.Compute(net, order.Hilbert, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := h.WithFullRows(net, ord)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, full, net, 16, "upgrade")
	before := rowsOf(full)

	// changedBytes counts the pages of b whose contents differ from a's.
	changedBytes := func(a, b *Hyper) int {
		n := 0
		for i := range b.tree {
			for k, p := range b.tree[i] {
				if *p != *a.tree[i][k] {
					n += pageBytes
				}
			}
			for k, p := range b.wb[i] {
				if *p != *a.wb[i][k] {
					n += wpageBytes
				}
			}
		}
		return n
	}

	// Re-weighting an edge to the weight it has moves nothing and copies
	// nothing.
	e := net.Neighbors(full.Borders[0])[0]
	same, rows, _ := full.WithRepairedRows([]sp.Step{reweight(t, net, full.Borders[0], e.To, e.W)})
	if _, _, fresh := same.Moved(full); fresh != 0 || rows != 0 {
		t.Fatalf("a no-op step copied %d bytes over %d rows", fresh, rows)
	}

	// Each edge of the graph, stretched and then restored in turn: every
	// repair folds to a fresh search, copies exactly the pages it changes,
	// and the restore leaves no entry moved against the build.
	cur, prev := full, net
	for x := graph.NodeID(0); int(x) < net.NumNodes(); x += 37 {
		for _, e := range net.Neighbors(x) {
			up := reweight(t, prev, x, e.To, e.W*3)
			down := reweight(t, up.G, x, e.To, e.W)
			stretched, _, _ := cur.WithRepairedRows([]sp.Step{up})
			checkExact(t, stretched, up.G, 16, fmt.Sprintf("stretching (%d, %d)", x, e.To))
			if _, _, fresh := stretched.Moved(cur); fresh != changedBytes(cur, stretched) {
				t.Fatalf("stretching (%d, %d) copied %d bytes, changed %d", x, e.To, fresh, changedBytes(cur, stretched))
			}
			back, _, _ := stretched.WithRepairedRows([]sp.Step{down})
			if moved, _, _ := back.Moved(full); len(moved) != 0 {
				t.Fatalf("restoring (%d, %d) leaves %d entries moved against the build", x, e.To, len(moved))
			}
			cur, prev = back, down.G
		}
	}
	// A batch repairs step by step like single steps do.
	var steps []sp.Step
	for x, cur := graph.NodeID(5), net; len(steps) < 4; x += 11 {
		e := net.Neighbors(x)[0]
		steps = append(steps, reweight(t, cur, x, e.To, []float64{0, e.W / 2, e.W * 5}[len(steps)%3]))
		cur = steps[len(steps)-1].G
	}
	patched, _, _ := full.WithRepairedRows(steps)
	checkExact(t, patched, steps[len(steps)-1].G, 16, "a four-step batch")
	if !slices.EqualFunc(before, rowsOf(full), slices.Equal) {
		t.Fatal("repairs changed the rows of the Hyper they started from")
	}

	for _, c := range []struct {
		hy  *Hyper
		net *graph.CSR
	}{{h, net}, {patched, patched.net}} {
		back, err := save(c.hy).load(c.net, 16, ord)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(rowsOf(c.hy), rowsOf(back), slices.Equal) {
			t.Fatal("rehydrated rows differ from the saved ones")
		}
		if a, b := allEntries(back), allEntries(c.hy); !slices.Equal(a, b) {
			t.Fatal("rehydrated rows carry different entries")
		}
		sameTrees(t, c.hy, back, "rehydrated")
	}
	if _, err := Rehydrate(net, 16, ord, true, h.NumBorders()+1, nil, nil); err == nil {
		t.Fatal("a row per border and one more accepted")
	}

	// Trees fold and Repair cannot walk fail the load: a parent slot past
	// its node's degree, and two non-borders each other's parent.
	var x, y graph.NodeID
	for x = 0; int(x) < net.NumNodes(); x++ {
		if !full.IsBorder[x] {
			if k := slices.IndexFunc(net.Neighbors(x), func(e graph.Edge) bool { return !full.IsBorder[e.To] }); k >= 0 {
				y = net.Neighbors(x)[k].To
				break
			}
		}
	}
	if int(x) == net.NumNodes() {
		t.Fatal("no two non-borders are neighbours")
	}
	for want, edit := range map[string]func(tree []uint16){
		"parent slot": func(tree []uint16) { tree[full.pos[x]] = uint16(net.Degree(x)) },
		"cycle": func(tree []uint16) {
			tree[full.pos[x]] = net.ParentSlot(x, y)
			tree[full.pos[y]] = net.ParentSlot(y, x)
		},
	} {
		bad := save(full)
		bad.tree = slices.Clone(bad.tree)
		edit(bad.tree[net.NumNodes():]) // row 1's tree
		if _, err := bad.load(net, 16, ord); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("a bad tree: %v, want a %q error", err, want)
		}
	}
}

// TestPlantAcrossPlateaus grows full rows where tight parents of equal
// value abound — zero weights, and 1e-12 edges that vanish into 1e12
// distances — so a tree chosen from values alone could close a cycle: the
// upgrade's trees, its searches' own parents, must fold bitwise to fresh
// searches, its W* must be bitwise Build's, and a saved row set must load
// back to the same trees, page for page. The last world is two copies of
// one such network side by side with no edge between them, so borders
// across the gap cannot reach each other: Build's W* between them is
// sp.Unreachable, and the far copy's nodes have no parent in either
// copy's rows.
func TestPlantAcrossPlateaus(t *testing.T) {
	palette := []float64{0, 0, 1, 1e-12, 1e12, 3}
	const worlds = 13
	for seed := int64(0); seed < worlds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := spatialGraph(rng, 40+rng.Intn(200))
		copies := 1
		if seed == worlds-1 {
			copies = 2
		}
		n := shape.NumNodes()
		g := graph.New(copies * n)
		for c := range copies {
			for v := 0; v < n; v++ {
				g.AddNode(shape.X(graph.NodeID(v))+float64(c)*10000, shape.Y(graph.NodeID(v)))
			}
		}
		for v := 0; v < n; v++ {
			for _, e := range shape.Neighbors(graph.NodeID(v)) {
				if graph.NodeID(v) < e.To {
					w := palette[rng.Intn(len(palette))]
					for c := range copies {
						g.MustAddEdge(graph.NodeID(c*n+v), graph.NodeID(c*n)+e.To, w)
					}
				}
			}
		}
		// Node x lies in copy x/n; a single copy is connected.
		apart := func(x, y graph.NodeID) bool { return int(x)/n != int(y)/n }
		net := g.Freeze()
		h, err := Build(net, 9)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d", seed)
		cross := 0
		for _, u := range h.Borders {
			for _, v := range h.Borders {
				if d, _ := h.HyperEdge(u, v); (d == sp.Unreachable) != apart(u, v) {
					t.Fatalf("%s: Build's W*(%d, %d) = %v", what, u, v, d)
				}
				if apart(u, v) {
					cross++
				}
			}
		}
		if copies == 2 && cross == 0 {
			t.Fatalf("%s: no border pair lies across the gap", what)
		}
		full := fullRows(t, g, h)
		for i, b := range full.Borders {
			for x := range graph.NodeID(net.NumNodes()) {
				if sl := full.pos[x]; apart(b, x) && full.tree[i][sl/PageLen][sl%PageLen] != graph.NoParent {
					t.Fatalf("%s: row %d gives node %d, out of its reach, a parent", what, i, x)
				}
			}
		}
		checkExact(t, full, full.net, 9, what)
		if a, b := allEntries(full), allEntries(h); !slices.EqualFunc(a, b, func(x, y mbt.Entry) bool {
			return x.Key == y.Key && math.Float64bits(x.Value) == math.Float64bits(y.Value)
		}) {
			t.Fatalf("%s: the upgrade's W* differs from Build's", what)
		}
		back, err := save(full).load(full.net, 9, &order.Ordering{Pos: full.pos, Seq: full.seq})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameTrees(t, full, back, what)
	}
}
