package sp_test

import (
	"math"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// benchWorld is the repository benchmark's world — DE at scale 0.25,
// 7,217 nodes — and its HYP borders under the default 100 cells: the
// sources of the rows hiti.Build, the upgrade and the certificate search.
func benchWorld(tb testing.TB) (*graph.CSR, []graph.NodeID) {
	tb.Helper()
	bg, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.25, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	g := bg.Freeze()
	hy, err := hiti.Build(g, core.DefaultConfig().Cells)
	if err != nil {
		tb.Fatal(err)
	}
	return g, hy.Borders
}

// sameAsHeap reports the first node where src's FullRow differs from the
// heap search's (DijkstraBounded with bound Unreachable) — in distance,
// bitwise, or in parent — or -1 when the two labellings are identical.
func sameAsHeap(g *graph.CSR, src graph.NodeID) graph.NodeID {
	heap, kernel := sp.AcquireWorkspace(g.NumNodes()), sp.AcquireWorkspace(g.NumNodes())
	defer sp.ReleaseWorkspace(heap)
	defer sp.ReleaseWorkspace(kernel)
	heap.DijkstraBounded(g, src, sp.Unreachable)
	kernel.FullRow(g, src)
	for v := range graph.NodeID(g.NumNodes()) {
		if math.Float64bits(heap.DistOf(v)) != math.Float64bits(kernel.DistOf(v)) || heap.ParentOf(v) != kernel.ParentOf(v) {
			return v
		}
	}
	return -1
}

// checkIdentical fails at the first source whose FullRow labelling is not
// the heap search's, distances and parents alike.
func checkIdentical(t *testing.T, name string, g *graph.CSR, srcs []graph.NodeID) {
	t.Helper()
	bad := make([]graph.NodeID, len(srcs))
	par.Work(len(srcs), func(i int) { bad[i] = sameAsHeap(g, srcs[i]) })
	for i, v := range bad {
		if v >= 0 {
			t.Fatalf("%s: the row from %d differs from the heap search's at node %d", name, srcs[i], v)
		}
	}
}

// TestFullRowIdenticalOnBenchmarkWorld: on the benchmark's world every
// border's row — the rows HYP stores and the certificate labels — is the
// heap search's to the bit, parents included, so the bytes of W*, HYP's
// full-row trees and the certificate's parent rows cannot move.
func TestFullRowIdenticalOnBenchmarkWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("two searches per border of the benchmark world")
	}
	g, borders := benchWorld(t)
	checkIdentical(t, "benchmark world", g, borders)
}

// TestFullRowIdenticalOnGoldenWorld: the same on the golden fixtures'
// world (core's goldenWorld), from every one of its 400 sources — FULL's
// rows included.
func TestFullRowIdenticalOnGoldenWorld(t *testing.T) {
	bg, err := netgen.Synthesize(400, 430, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := bg.Freeze()
	srcs := make([]graph.NodeID, g.NumNodes())
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}
	checkIdentical(t, "golden world", g, srcs)
}

// BenchmarkFullRow is one border's full row on the benchmark's world, the
// unit of hiti.Build, the full-row upgrade and Certify; heap is the same
// row by the heap search over every node (DijkstraBounded with bound
// Unreachable), for reference.
func BenchmarkFullRow(b *testing.B) {
	g, borders := benchWorld(b)
	src := borders[len(borders)/2]
	w := sp.NewWorkspace(g.NumNodes())
	b.Run("chains", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.FullRow(g, src)
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.DijkstraBounded(g, src, sp.Unreachable)
		}
	})
}
