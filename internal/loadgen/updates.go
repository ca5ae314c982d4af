// Package loadgen builds the edge-update schedules a load driver posts to
// /update; the repository benchmark's churn workload is its one caller.
package loadgen

import (
	"fmt"
	"math/rand"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
)

// PerturbBatches samples count disjoint edge sets of per edges each from
// g and builds update batches that perturb every sampled weight by +5%.
// Cycling the batches alternates each edge between its perturbed and
// original weight (an even number of passes restores the graph), so every
// POST /update is a real change — never a no-op the server short-circuits.
// Deterministic per seed.
func PerturbBatches(g *graph.Graph, count, per int, seed int64) ([][]core.EdgeUpdate, error) {
	if count <= 0 || per <= 0 {
		return nil, fmt.Errorf("loadgen: batch shape %dx%d must be positive", count, per)
	}
	rng := rand.New(rand.NewSource(seed))
	type edge struct {
		u, v graph.NodeID
		w    float64
	}
	// Dedup by undirected pair across all batches: one edge in two batches
	// would break the perturb/restore alternation.
	seen := make(map[[2]graph.NodeID]bool, count*per)
	edges := make([]edge, 0, count*per)
	for attempts := 0; len(edges) < count*per; attempts++ {
		if attempts > 100*count*per {
			return nil, fmt.Errorf("loadgen: could not sample %d distinct edges", count*per)
		}
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		e := adj[rng.Intn(len(adj))]
		key := [2]graph.NodeID{u, e.To}
		if e.To < u {
			key = [2]graph.NodeID{e.To, u}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, edge{u: u, v: e.To, w: e.W})
	}
	// Lay out count perturb batches followed by their count restore
	// batches; a driver cycles the slice, so traffic perturbs every sampled
	// edge once, then restores every one, repeating.
	perturb := make([][]core.EdgeUpdate, count)
	restore := make([][]core.EdgeUpdate, count)
	for i := 0; i < count; i++ {
		perturb[i] = make([]core.EdgeUpdate, per)
		restore[i] = make([]core.EdgeUpdate, per)
		for j := 0; j < per; j++ {
			e := edges[i*per+j]
			perturb[i][j] = core.EdgeUpdate{U: e.u, V: e.v, W: e.w * 1.05}
			restore[i][j] = core.EdgeUpdate{U: e.u, V: e.v, W: e.w}
		}
	}
	return append(perturb, restore...), nil
}
