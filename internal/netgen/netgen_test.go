package netgen

import (
	"math"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

func TestSynthesizeBasicProperties(t *testing.T) {
	g, err := Synthesize(500, 527, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Errorf("nodes = %d, want 500", g.NumNodes())
	}
	if g.NumEdges() < 499 {
		t.Errorf("edges = %d, below spanning tree", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("not connected")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	minX, minY, maxX, maxY := g.Freeze().Bounds()
	if minX < 0 || minY < 0 || maxX > Span+1e-6 || maxY > Span+1e-6 {
		t.Errorf("bounds (%v,%v,%v,%v) outside [0,%v]", minX, minY, maxX, maxY, Span)
	}
}

func TestSynthesizeHitsEdgeTarget(t *testing.T) {
	g, err := Synthesize(1000, 1054, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Edge target is approximate but should be within a few percent: kNN
	// candidates far exceed 1.054 edges/node.
	if g.NumEdges() < 1040 || g.NumEdges() > 1054 {
		t.Errorf("edges = %d, want ≈1054", g.NumEdges())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(300, 320, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(300, 320, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("sizes differ across runs")
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := graph.NodeID(v)
		if a.X(id) != b.X(id) || a.Y(id) != b.Y(id) {
			t.Fatalf("node %d coordinates differ", v)
		}
		ea, eb := a.Neighbors(id), b.Neighbors(id)
		if len(ea) != len(eb) {
			t.Fatalf("node %d degrees differ", v)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	a, _ := Synthesize(200, 210, 1)
	b, _ := Synthesize(200, 210, 2)
	same := true
	for v := 0; v < a.NumNodes() && same; v++ {
		id := graph.NodeID(v)
		if a.X(id) != b.X(id) || a.Y(id) != b.Y(id) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical layouts")
	}
}

func TestWeightsExceedLength(t *testing.T) {
	g, _ := Synthesize(400, 420, 3)
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		for _, e := range g.Neighbors(id) {
			if e.To < id {
				continue
			}
			l := g.Euclid(id, e.To)
			if e.W < l-1e-9 {
				t.Fatalf("edge (%d,%d) weight %v below length %v", id, e.To, e.W, l)
			}
			if l > 0 && e.W > l*1.31 {
				t.Fatalf("edge (%d,%d) weight %v above 1.3×length %v", id, e.To, e.W, l)
			}
		}
	}
}

func TestGenerateDatasets(t *testing.T) {
	for _, d := range Datasets() {
		g, err := Generate(d, Config{Scale: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		want := int(math.Round(float64(shapes[d].nodes) * 0.01))
		if g.NumNodes() != want {
			t.Errorf("%s: %d nodes, want %d", d, g.NumNodes(), want)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", d)
		}
		ratio := float64(g.NumEdges()) / float64(g.NumNodes())
		if ratio < 0.99 || ratio > 1.10 {
			t.Errorf("%s: edge/node ratio %v outside road-network range", d, ratio)
		}
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate("XX", Config{}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := Generate(DE, Config{Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := Generate(DE, Config{Scale: math.NaN()}); err == nil {
		t.Error("NaN scale accepted")
	}
	if _, err := Synthesize(1, 0, 1); err == nil {
		t.Error("single-node graph accepted")
	}
}

func TestGenerateMinimumSize(t *testing.T) {
	// Tiny scales clamp to a small but workable graph.
	g, err := Generate(DE, Config{Scale: 0.00001})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 16 {
		t.Errorf("clamped size %d too small", g.NumNodes())
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if uf.components != 5 {
		t.Fatal("initial component count wrong")
	}
	if !uf.union(0, 1) || !uf.union(2, 3) {
		t.Error("fresh unions should report true")
	}
	if uf.union(1, 0) {
		t.Error("repeated union should report false")
	}
	if uf.components != 3 {
		t.Errorf("components = %d, want 3", uf.components)
	}
	if uf.find(0) != uf.find(1) || uf.find(2) != uf.find(3) {
		t.Error("find inconsistent")
	}
	if uf.find(4) == uf.find(0) {
		t.Error("separate sets merged")
	}
}

func TestClusteringIsPresent(t *testing.T) {
	// Clustered sampling should make nearest-neighbor distances much
	// smaller than a uniform layout would produce on average.
	g, _ := Synthesize(2000, 2100, 11)
	var totalNN float64
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		best := math.MaxFloat64
		for _, e := range g.Neighbors(id) {
			if d := g.Euclid(id, e.To); d < best {
				best = d
			}
		}
		totalNN += best
	}
	avgNN := totalNN / float64(g.NumNodes())
	uniformSpacing := Span / math.Sqrt(float64(g.NumNodes()))
	if avgNN > uniformSpacing {
		t.Errorf("avg nearest edge %v not below uniform spacing %v; clustering missing", avgNN, uniformSpacing)
	}
}
