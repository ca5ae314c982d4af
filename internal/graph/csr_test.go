package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestParentSlots pins the one slot encoding: a parent's index in the
// child's adjacency list, NoParent for none, and CheckSlots refusing, by
// name, a node whose degree a slot cannot address.
func TestParentSlots(t *testing.T) {
	g := New(4)
	for range 4 {
		g.AddNode(0, 0)
	}
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 1, 1)
	c := g.Freeze()
	for k, e := range c.Neighbors(2) {
		if got := c.ParentSlot(2, e.To); int(got) != k {
			t.Fatalf("slot of parent %d is %d, want its index %d", e.To, got, k)
		}
	}
	if got := c.ParentSlot(2, Invalid); got != NoParent {
		t.Fatalf("no parent: slot %d, want NoParent", got)
	}
	if err := c.CheckSlots(); err != nil {
		t.Fatal(err)
	}
	star := New(NoParent + 2)
	for range NoParent + 2 {
		star.AddNode(0, 0)
	}
	for v := range NodeID(NoParent + 1) {
		star.MustAddEdge(v, NoParent+1, 1)
	}
	if err := star.Freeze().CheckSlots(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d has %d neighbours", NoParent+1, NoParent+1)) {
		t.Fatalf("a node of degree %d: %v, want a refusal naming it", NoParent+1, err)
	}
}

// TestFreezeMatchesGraph pins the CSR snapshot to the mutable graph:
// identical node count, degrees, adjacency contents and order, coordinates.
func TestFreezeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := New(100)
	for i := 0; i < 100; i++ {
		g.AddNode(rng.Float64(), rng.Float64())
	}
	for i := 1; i < 100; i++ {
		g.MustAddEdge(NodeID(i), NodeID(rng.Intn(i)), rng.Float64()+0.1)
	}
	for i := 0; i < 80; i++ {
		u, v := NodeID(rng.Intn(100)), NodeID(rng.Intn(100))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, rng.Float64()+0.1)
		}
	}
	c := g.Freeze()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("CSR shape %d/%d, want %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		ga, ca := g.Neighbors(id), c.Neighbors(id)
		if len(ga) != len(ca) || c.Degree(id) != g.Degree(id) {
			t.Fatalf("node %d: degree %d vs %d", v, len(ca), len(ga))
		}
		for i := range ga {
			if ga[i] != ca[i] {
				t.Fatalf("node %d adj[%d]: %+v vs %+v", v, i, ca[i], ga[i])
			}
		}
		if c.X(id) != g.X(id) || c.Y(id) != g.Y(id) {
			t.Fatalf("node %d coords differ", v)
		}
	}
}

// TestFreezeIsSnapshot checks that mutations after Freeze are invisible
// through the CSR.
func TestFreezeIsSnapshot(t *testing.T) {
	g := New(3)
	a := g.AddNode(0, 0)
	b := g.AddNode(1, 0)
	cn := g.AddNode(2, 0)
	g.MustAddEdge(a, b, 1)
	c := g.Freeze()
	g.MustAddEdge(b, cn, 2)
	g.RemoveEdge(a, b)
	if got := len(c.Neighbors(a)); got != 1 {
		t.Errorf("CSR neighbors of a = %d, want the snapshot's 1", got)
	}
	if got := len(c.Neighbors(b)); got != 1 {
		t.Errorf("CSR neighbors of b = %d, want the snapshot's 1", got)
	}
	if c.NumEdges() != 1 {
		t.Errorf("CSR edges = %d, want 1", c.NumEdges())
	}
}

// TestPrivateEdgesCopyOnWrite pins the update path's one mutable moment: a
// WithPrivateEdges copy re-weights both halves of an edge, and the CSR it
// was copied from — which readers may still hold — keeps every weight.
func TestPrivateEdgesCopyOnWrite(t *testing.T) {
	g := New(3)
	a, b, c := g.AddNode(0, 0), g.AddNode(1, 0), g.AddNode(2, 0)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, c, 2)
	old := g.Freeze()
	next := old.WithPrivateEdges()
	if prev, err := next.SetEdgeWeight(c, b, 5); err != nil || prev != 2 {
		t.Fatalf("SetEdgeWeight = %v, %v; want 2, nil", prev, err)
	}
	for _, uv := range [][2]NodeID{{b, c}, {c, b}} {
		if w, _ := next.EdgeWeight(uv[0], uv[1]); w != 5 {
			t.Errorf("copy: w(%d, %d) = %v, want 5", uv[0], uv[1], w)
		}
		if w, _ := old.EdgeWeight(uv[0], uv[1]); w != 2 {
			t.Errorf("original: w(%d, %d) = %v, want 2", uv[0], uv[1], w)
		}
	}
	if _, err := next.SetEdgeWeight(a, c, 1); err == nil {
		t.Error("re-weighting a missing edge succeeded")
	}
	if _, err := next.SetEdgeWeight(a, b, -1); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestAddEdgeKeepsAdjacencySorted pins the always-sorted invariant under
// adversarial insertion order, so tuple canonicalization never depends on a
// separate sort pass.
func TestAddEdgeKeepsAdjacencySorted(t *testing.T) {
	g := New(10)
	for i := 0; i < 10; i++ {
		g.AddNode(0, 0)
	}
	order := []NodeID{7, 2, 9, 1, 4, 8, 3, 6}
	for _, v := range order {
		g.MustAddEdge(0, v, float64(v))
	}
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1].To >= adj[i].To {
			t.Fatalf("adjacency unsorted at %d: %v", i, adj)
		}
	}
	// Duplicate still rejected after out-of-order inserts.
	if err := g.AddEdge(4, 0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	// Lookups agree with the sorted state.
	for _, v := range order {
		w, ok := g.EdgeWeight(0, v)
		if !ok || w != float64(v) {
			t.Fatalf("EdgeWeight(0, %d) = %v, %v", v, w, ok)
		}
	}
	if g.HasEdge(0, 5) {
		t.Error("phantom edge reported")
	}
}

// BenchmarkAddEdgeBulk measures bulk graph construction at several degrees
// and arrival orders. "sorted" is the loader case (io.Write emits edges so
// every adjacency list grows in ascending order): the binary-search dup
// check plus pure appends make the load O(Σdeg·log deg) where the old
// linear dup scan was O(Σdeg²). "shuffled" is the adversarial case where
// sorted insertion additionally pays the memmove.
func BenchmarkAddEdgeBulk(b *testing.B) {
	type edge struct {
		u, v NodeID
		w    float64
	}
	for _, deg := range []int{4, 64, 512} {
		n := 8192 / deg * 2 // keep total edges comparable
		if n < deg+1 {
			n = deg + 1
		}
		rng := rand.New(rand.NewSource(1))
		edges := make([]edge, 0, n*deg/2)
		seen := make(map[uint64]bool)
		for len(edges) < cap(edges) {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			key := uint64(lo)<<32 | uint64(hi)
			if seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, edge{u, v, rng.Float64() + 0.1})
		}
		load := func(b *testing.B, edges []edge) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(n)
				for j := 0; j < n; j++ {
					g.AddNode(0, 0)
				}
				for _, e := range edges {
					g.MustAddEdge(e.u, e.v, e.w)
				}
			}
		}
		b.Run(fmt.Sprintf("shuffled/deg=%d", deg), func(b *testing.B) {
			load(b, edges)
		})
		// Loader order: every adjacency list receives neighbors ascending,
		// reproducing what reading a canonical on-disk graph does.
		ordered := make([]edge, len(edges))
		copy(ordered, edges)
		for i := range ordered {
			if ordered[i].v < ordered[i].u {
				ordered[i].u, ordered[i].v = ordered[i].v, ordered[i].u
			}
		}
		sort.Slice(ordered, func(a, c int) bool {
			if ordered[a].u != ordered[c].u {
				return ordered[a].u < ordered[c].u
			}
			return ordered[a].v < ordered[c].v
		})
		b.Run(fmt.Sprintf("sorted/deg=%d", deg), func(b *testing.B) {
			load(b, ordered)
		})
	}
}
