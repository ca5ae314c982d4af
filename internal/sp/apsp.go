package sp

import (
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/par"
)

// FloydWarshall computes all-pairs shortest path distances with the textbook
// O(|V|³) dynamic program the paper prescribes for FULL (§IV-B). It is only
// feasible for small graphs; AllPairsRows is the scalable equivalent. Kept
// as the oracle that repeated-Dijkstra results are cross-validated against.
func FloydWarshall(g graph.View) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = Unreachable
		}
		d[i][i] = 0
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(graph.NodeID(u)) {
			if e.W < d[u][e.To] {
				d[u][e.To] = e.W
			}
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik == Unreachable {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if dk[j] == Unreachable {
					continue
				}
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return d
}

// AllPairsRows streams all-pairs shortest path distances one source row at a
// time, computed by repeated Dijkstra (FullRow) — the appropriate algorithm
// for sparse road networks, O(|V|·(|E|+|V|) log |V|) total instead of
// Floyd–Warshall's O(|V|³). sink is called concurrently from worker
// goroutines, in whatever order rows complete, and owns the row slice;
// sinks that fold each row into an independent slot (FULL's per-row
// subtree roots) keep that fold on the worker instead of serializing
// O(|V|²) post-processing behind a reordering channel. sink must be safe
// for concurrent calls with distinct sources.
//
// This is the substitution documented in DESIGN.md §3: identical output to
// Floyd–Warshall (property-tested), feasible at road-network scale, and it
// preserves FULL's construction-cost blow-up relative to LDM/HYP because the
// output is still quadratic.
func AllPairsRows(view *graph.CSR, sink func(src graph.NodeID, dist []float64)) {
	n := view.NumNodes()
	par.Work(n, func(s int) {
		w := AcquireWorkspace(n)
		defer ReleaseWorkspace(w)
		sink(graph.NodeID(s), w.DijkstraRow(view, graph.NodeID(s), nil))
	})
}
