package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperFig1 builds the 7-node example network of the paper's Figure 1.
// The shortest path v1→v4 is v1,v3,v5,v6,v4 with cost 8.
func paperFig1(t testing.TB) *Graph {
	t.Helper()
	g := New(7)
	for i := 0; i < 7; i++ {
		g.AddNode(float64(i), float64(i%3))
	}
	// Node vk in the paper is NodeID k-1 here. The unique shortest path
	// v1→v3→v5→v6→v4 costs 2+3+2+1 = 8, as in the paper's example.
	edges := []struct {
		u, v int
		w    float64
	}{
		{0, 1, 1}, // v1-v2
		{1, 3, 9}, // v2-v4
		{0, 2, 2}, // v1-v3
		{2, 4, 3}, // v3-v5
		{4, 5, 2}, // v5-v6
		{5, 3, 1}, // v6-v4
		{1, 6, 2}, // v2-v7
		{6, 5, 5}, // v7-v6
	}
	for _, e := range edges {
		g.MustAddEdge(NodeID(e.u), NodeID(e.v), e.w)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("fig1 graph invalid: %v", err)
	}
	return g
}

func TestAddEdgeRejectsBadInput(t *testing.T) {
	g := New(2)
	a := g.AddNode(0, 0)
	b := g.AddNode(1, 1)
	cases := []struct {
		name string
		u, v NodeID
		w    float64
	}{
		{"self-loop", a, a, 1},
		{"negative", a, b, -1},
		{"nan", a, b, math.NaN()},
		{"inf", a, b, math.Inf(1)},
		{"range-u", 99, b, 1},
		{"range-v", a, 99, 1},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("%s: AddEdge(%d,%d,%v) succeeded, want error", c.name, c.u, c.v, c.w)
		}
	}
	g.MustAddEdge(a, b, 1)
	if err := g.AddEdge(b, a, 2); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := paperFig1(t)
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("edge (0,2) should exist in both directions")
	}
	if g.HasEdge(0, 6) {
		t.Error("edge (0,6) should not exist")
	}
	w, ok := g.EdgeWeight(1, 3)
	if !ok || w != 9 {
		t.Errorf("EdgeWeight(1,3) = %v, %v; want 9, true", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 6); ok {
		t.Error("EdgeWeight(0,6) should not exist")
	}
	if g.NumNodes() != 7 || g.NumEdges() != 8 {
		t.Errorf("got %d nodes %d edges, want 7, 8", g.NumNodes(), g.NumEdges())
	}
	if d := g.Degree(5); d != 3 {
		t.Errorf("Degree(5) = %d, want 3", d)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := paperFig1(t)
	if !g.RemoveEdge(0, 2) {
		t.Fatal("existing edge not removed")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Error("edge still present after removal")
	}
	if g.NumEdges() != 7 {
		t.Errorf("NumEdges = %d, want 7", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid after removal: %v", err)
	}
	if g.RemoveEdge(0, 2) {
		t.Error("double removal reported true")
	}
	if g.RemoveEdge(0, 99) {
		t.Error("out-of-range removal reported true")
	}
	// Removal then re-insertion round-trips.
	g.MustAddEdge(0, 2, 2)
	if w, ok := g.EdgeWeight(0, 2); !ok || w != 2 {
		t.Error("re-added edge wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperFig1(t)
	c := g.Clone()
	c.MustAddEdge(0, 6, 5)
	if g.HasEdge(0, 6) {
		t.Error("mutating clone affected original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	comp, n := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("got %d components, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("nodes 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("nodes 3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("node 5 should be isolated")
	}
	if g.IsConnected() {
		t.Error("graph should not be connected")
	}

}

func TestTupleEncodingRoundTrip(t *testing.T) {
	g := paperFig1(t)
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		tup := g.Freeze().TupleOf(v)
		enc := tup.AppendBinary(nil)
		if len(enc) != tup.EncodedSize() {
			t.Errorf("node %d: encoded %d bytes, EncodedSize says %d", v, len(enc), tup.EncodedSize())
		}
		dec, n, err := DecodeTuple(enc, 0)
		if err != nil {
			t.Fatalf("node %d: decode: %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("node %d: consumed %d bytes, want %d", v, n, len(enc))
		}
		if dec.ID != tup.ID || dec.X != tup.X || dec.Y != tup.Y || len(dec.Adj) != len(tup.Adj) {
			t.Errorf("node %d: round trip mismatch: %+v vs %+v", v, dec, tup)
		}
		for i := range dec.Adj {
			if dec.Adj[i] != tup.Adj[i] {
				t.Errorf("node %d adj[%d]: %+v vs %+v", v, i, dec.Adj[i], tup.Adj[i])
			}
		}
	}
}

func TestTupleExtraRoundTrip(t *testing.T) {
	g := paperFig1(t)
	tup := g.Freeze().TupleOf(3)
	tup.Extra = []byte{1, 2, 3, 4, 5}
	enc := tup.AppendBinary(nil)
	dec, n, err := DecodeTuple(enc, len(tup.Extra))
	if err != nil {
		t.Fatalf("decode with extra: %v", err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d, want %d", n, len(enc))
	}
	if !bytes.Equal(dec.Extra, tup.Extra) {
		t.Errorf("extra round trip: %v vs %v", dec.Extra, tup.Extra)
	}
}

func TestDecodeTupleTruncated(t *testing.T) {
	g := paperFig1(t)
	enc := g.Freeze().TupleOf(3).AppendBinary(nil)
	for cut := 0; cut < len(enc); cut += 5 {
		if _, _, err := DecodeTuple(enc[:cut], 0); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded, want error", cut)
		}
	}
}

func TestTupleWeightLookup(t *testing.T) {
	g := paperFig1(t)
	tup := g.Freeze().TupleOf(5) // v6: neighbors 1, 3, 4, 6
	w, ok := tup.Weight(3)
	if !ok || w != 1 {
		t.Errorf("Weight(3) = %v, %v; want 1, true", w, ok)
	}
	if _, ok := tup.Weight(0); ok {
		t.Error("Weight(0) should not exist on tuple of node 5")
	}
}

func TestPathOperations(t *testing.T) {
	g := paperFig1(t)
	p := Path{0, 2, 4, 5, 3} // the Fig 1 shortest path, cost 8
	if p.Source() != 0 || p.Target() != 3 || p.Hops() != 4 {
		t.Errorf("path accessors wrong: %v %v %v", p.Source(), p.Target(), p.Hops())
	}
	d, err := p.DistIn(g)
	if err != nil || d != 8 {
		t.Errorf("DistIn = %v, %v; want 8, nil", d, err)
	}
	if err := p.Validate(g, 0, 3); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := p.Validate(g, 0, 4); err == nil {
		t.Error("Validate with wrong target should fail")
	}
	if err := (Path{0, 6, 3}).Validate(g, 0, 3); err == nil {
		t.Error("Validate with fake edge should fail")
	}
	if err := (Path{0, 2, 0, 2, 4, 5, 3}).Validate(g, 0, 3); err == nil {
		t.Error("Validate with repeated node should fail")
	}
	if _, err := (Path{}).DistIn(g); err == nil {
		t.Error("empty path should fail")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph should have no nodes/edges")
	}
	if !g.IsConnected() {
		t.Error("empty graph is vacuously connected")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph invalid: %v", err)
	}
	minX, minY, maxX, maxY := g.Freeze().Bounds()
	if minX != 0 || minY != 0 || maxX != 0 || maxY != 0 {
		t.Error("empty bounds should be zero")
	}
}

// randomGraph builds a random connected graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	// Random spanning tree first, then extra edges.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i]), NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(u, v, 1+rng.Float64()*99)
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+rng.Float64()*99)
		}
	}
	return g
}

func TestBinaryIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(60))
		var buf bytes.Buffer
		if _, err := g.Freeze().WriteTo(&buf); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		h, err := Read(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return graphsEqual(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEdgeListIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40))
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return graphsEqual(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	ca, cb := a.Freeze(), b.Freeze()
	for v := 0; v < a.NumNodes(); v++ {
		if a.X(NodeID(v)) != b.X(NodeID(v)) || a.Y(NodeID(v)) != b.Y(NodeID(v)) {
			return false
		}
		ta := ca.TupleOf(NodeID(v))
		tb := cb.TupleOf(NodeID(v))
		if !bytes.Equal(ta.AppendBinary(nil), tb.AppendBinary(nil)) {
			return false
		}
	}
	return true
}

func TestReadRejectsCorruptHeader(t *testing.T) {
	g := paperFig1(t)
	var buf bytes.Buffer
	if _, err := g.Freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(data[:10])); err == nil {
		t.Error("truncated stream accepted")
	}
	badVer := append([]byte(nil), data...)
	badVer[7] = 99
	if _, err := Read(bytes.NewReader(badVer)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	g := paperFig1(t)
	// Corrupt one direction's weight directly.
	g.adj[0][0].W += 1
	if err := g.Validate(); err == nil {
		t.Error("asymmetric weight not detected")
	}
}

func TestEuclid(t *testing.T) {
	g := New(2)
	a := g.AddNode(0, 0)
	b := g.AddNode(3, 4)
	if d := g.Euclid(a, b); d != 5 {
		t.Errorf("Euclid = %v, want 5", d)
	}
}
