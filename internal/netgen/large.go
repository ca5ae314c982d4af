package netgen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/authhints/spv/internal/graph"
)

// This file holds the large-world generators behind the lazy-snapshot
// benchmarks: Synthesize's road-shaped construction (kNN candidates, MST,
// subdivision) costs superlinear time and sizable intermediates, which is
// the right trade for paper-faithful topology at laptop scale but the
// wrong one for the 10⁵–10⁶-node worlds the snapshot layer must handle.
// Grid and ScaleFree stream nodes and edges straight into the graph in
// O(n + m) with O(n) working memory, so generating a million-node world
// takes seconds — the snapshot, not the generator, becomes the thing
// under test.

// Grid builds a near-square planar lattice of exactly n nodes: node i
// sits at row i/cols, column i%cols, with jittered coordinates in
// [0..Span]² and edges to its right and lower neighbors weighted by
// length times a per-edge road-quality factor in [1.0, 1.3]. The last
// row may be partial; every node still reaches its up or left neighbor,
// so the lattice is connected by construction. Degree ≈ 4 — denser than
// the road networks, which is what makes it a good stress shape for
// snapshot size at a given node count.
func Grid(n int, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("netgen: need at least 2 nodes, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	// Cell pitch in normalized coordinates; jitter stays well under half a
	// pitch so neighbor geometry (and thus edge weights) remains grid-like.
	pitch := Span / float64(maxInt(rows, cols))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		x := clampSpan((float64(c) + 0.5 + 0.4*(rng.Float64()-0.5)) * pitch)
		y := clampSpan((float64(r) + 0.5 + 0.4*(rng.Float64()-0.5)) * pitch)
		g.AddNode(x, y)
	}
	quality := func() float64 { return 1 + 0.3*rng.Float64() }
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		if c+1 < cols && i+1 < n && (i+1)/cols == r {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), g.Euclid(graph.NodeID(i), graph.NodeID(i+1))*quality())
		}
		if i+cols < n {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+cols), g.Euclid(graph.NodeID(i), graph.NodeID(i+cols))*quality())
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("netgen: grid invalid: %w", err)
	}
	return g, nil
}

// ScaleFree builds a Barabási–Albert preferential-attachment graph of n
// nodes: each new node attaches to degree distinct existing nodes chosen
// proportionally to their current degree, via the classic
// random-edge-endpoint trick (sampling a uniform endpoint from the edge
// list IS degree-proportional sampling, no weighted structure needed).
// Connected by construction — every node links into the existing
// component. Coordinates are uniform in [0..Span]² and weights are
// length-based like the other generators; the topology, not the
// geometry, is the point: hub-heavy degree distributions are the
// adversarial opposite of road networks for the hint methods.
func ScaleFree(n, degree int, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("netgen: need at least 2 nodes, got %d", n)
	}
	if degree < 1 {
		degree = 2
	}
	if degree >= n {
		degree = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*Span, rng.Float64()*Span)
	}
	// endpoints holds every edge endpoint ever added; a uniform draw from
	// it lands on node v with probability deg(v)/2m.
	endpoints := make([]int32, 0, 2*n*degree)
	addEdge := func(u, v int) {
		w := g.Euclid(graph.NodeID(u), graph.NodeID(v)) * (1 + 0.3*rng.Float64())
		if w <= 0 {
			w = 0.001
		}
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), w)
		endpoints = append(endpoints, int32(u), int32(v))
	}
	// Seed clique over the first degree+1 nodes gives every early node
	// nonzero degree before preferential attachment starts.
	for u := 0; u <= degree; u++ {
		for v := u + 1; v <= degree; v++ {
			addEdge(u, v)
		}
	}
	picked := map[int]bool{}
	for u := degree + 1; u < n; u++ {
		clear(picked)
		for len(picked) < degree {
			v := int(endpoints[rng.Intn(len(endpoints))])
			// Self-loops and duplicate targets retry; the endpoint pool is
			// large and hub-heavy, so a handful of retries suffice.
			if v != u && !picked[v] {
				picked[v] = true
				addEdge(u, v)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("netgen: scale-free invalid: %w", err)
	}
	return g, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
