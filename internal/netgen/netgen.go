// Package netgen synthesizes road-network datasets with the structural
// shape of the paper's four DCW networks (DE, ARG, IND, NA): sparse, almost
// tree-like planar graphs (≈1.05 edges per node), spatially clustered
// nodes, coordinates normalized to [0..10,000]², and edge weights that are
// travel-cost-like (length times a road-quality factor) rather than pure
// Euclidean distances — the paper's methods must not and do not assume
// Euclidean weights.
//
// The original DCW exports are no longer distributed, so these generators
// are the documented substitution (DESIGN.md §3): every structural property
// the verification methods are sensitive to — locality, degree distribution,
// sparsity, clustering — is reproduced; absolute sizes scale with the
// configurable Scale factor.
package netgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/authhints/spv/internal/graph"
)

// Span is the coordinate range all generated networks are normalized to,
// matching the paper's [0..10,000] normalization.
const Span = 10000.0

// Dataset names one of the paper's four road networks.
type Dataset string

const (
	DE  Dataset = "DE"  // Germany: 28,867 nodes, 30,429 edges
	ARG Dataset = "ARG" // Argentina: 85,287 nodes, 88,357 edges
	IND Dataset = "IND" // India: 149,566 nodes, 155,483 edges
	NA  Dataset = "NA"  // North America: 175,813 nodes, 179,179 edges
)

// Datasets lists the four paper datasets in size order.
func Datasets() []Dataset { return []Dataset{DE, ARG, IND, NA} }

// shape describes a dataset's paper-reported size.
type shape struct {
	nodes, edges int
	seed         int64
}

var shapes = map[Dataset]shape{
	DE:  {28867, 30429, 101},
	ARG: {85287, 88357, 102},
	IND: {149566, 155483, 103},
	NA:  {175813, 179179, 104},
}

// Config controls generation.
type Config struct {
	// Scale multiplies the paper's node count (default 0.1 — see DESIGN.md
	// for the laptop-scale rationale).
	Scale float64
	// Seed overrides the per-dataset default seed when non-zero.
	Seed int64
}

// Generate synthesizes the named dataset. The result is connected,
// normalized to [0..Span]² and validated.
func Generate(d Dataset, cfg Config) (*graph.Graph, error) {
	s, ok := shapes[d]
	if !ok {
		return nil, fmt.Errorf("netgen: unknown dataset %q", d)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 0.1
	}
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("netgen: bad scale %v", scale)
	}
	n := int(math.Round(float64(s.nodes) * scale))
	if n < 16 {
		n = 16
	}
	m := int(math.Round(float64(s.edges) * scale))
	seed := s.seed
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	return Synthesize(n, m, seed)
}

// Synthesize builds a road-like network with the requested node and edge
// counts. The construction mirrors how DCW exports are shaped:
//
//  1. sample a clustered *junction backbone* of about nodes/4 points
//     (population centers plus rural background),
//  2. connect it with a Euclidean MST over k-nearest-neighbor candidates,
//     plus the shortest extra local candidates to hit the backbone edge
//     target (chosen so the final edge surplus m−n matches the request —
//     subdivision preserves m−n exactly),
//  3. subdivide backbone edges into chains of degree-2 shape points,
//     proportionally to their length, until the node budget is met — this
//     reproduces the polyline-heavy DCW degree distribution (≈70% of nodes
//     have degree 2) that makes Dijkstra balls cover thousands of nodes,
//  4. weight each segment by its length times a per-road quality factor in
//     [1.0, 1.3]; coordinates are normalized to [0..Span]² before any
//     weight is derived.
func Synthesize(nodes, edges int, seed int64) (*graph.Graph, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("netgen: need at least 2 nodes, got %d", nodes)
	}
	if edges < nodes-1 {
		edges = nodes - 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Backbone sizing: the edge surplus (m − n) is invariant under edge
	// subdivision, so the backbone carries the whole surplus.
	backboneN := nodes / 4
	if backboneN < 16 {
		backboneN = nodes // tiny graphs: no subdivision
	}
	surplus := edges - nodes
	backboneM := backboneN + surplus
	if backboneM < backboneN-1 {
		backboneM = backboneN - 1
	}

	xs, ys := samplePoints(rng, backboneN)
	normalizePoints(xs, ys)

	cand := knnCandidates(xs, ys, 6)
	sort.Slice(cand, func(a, b int) bool { return cand[a].d < cand[b].d })

	// Kruskal MST over the candidates.
	uf := newUnionFind(backboneN)
	used := make([]bool, len(cand))
	for i, c := range cand {
		if uf.union(c.u, c.v) {
			used[i] = true
		}
	}
	// Stitch residual components (rare: kNN graphs are near-connected).
	for uf.components > 1 {
		u, v := nearestCrossPair(xs, ys, uf)
		uf.union(u, v)
		cand = append(cand, candidate{u, v, dist2(xs, ys, u, v)})
		used = append(used, true)
	}
	type bbEdge struct {
		u, v int
		len  float64
	}
	var backbone []bbEdge
	have := make(map[uint64]bool)
	push := func(u, v int) {
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(lo)<<32 | uint64(hi)
		if u != v && !have[key] {
			have[key] = true
			backbone = append(backbone, bbEdge{u, v, math.Sqrt(dist2(xs, ys, u, v))})
		}
	}
	for i, c := range cand {
		if used[i] {
			push(c.u, c.v)
		}
	}
	for i, c := range cand {
		if len(backbone) >= backboneM {
			break
		}
		if !used[i] {
			push(c.u, c.v)
		}
	}

	// Distribute shape points over backbone edges proportionally to length.
	extra := nodes - backboneN
	totalLen := 0.0
	for _, e := range backbone {
		totalLen += e.len
	}
	splits := make([]int, len(backbone))
	assigned := 0
	if totalLen > 0 && extra > 0 {
		for i, e := range backbone {
			s := int(float64(extra) * e.len / totalLen)
			splits[i] = s
			assigned += s
		}
		// Spread the rounding remainder over the longest edges.
		order := make([]int, len(backbone))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return backbone[order[a]].len > backbone[order[b]].len })
		for i := 0; assigned < extra; i = (i + 1) % len(order) {
			splits[order[i]]++
			assigned++
		}
	}

	g := graph.New(nodes)
	for i := 0; i < backboneN; i++ {
		g.AddNode(xs[i], ys[i])
	}
	addSeg := func(u, v graph.NodeID, quality float64) {
		w := g.Euclid(u, v) * quality
		if w <= 0 {
			w = 0.001 // coincident points: tiny positive cost
		}
		g.MustAddEdge(u, v, w)
	}
	for i, e := range backbone {
		quality := 1 + 0.3*rng.Float64() // per-road factor shared by segments
		prev := graph.NodeID(e.u)
		k := splits[i]
		for s := 1; s <= k; s++ {
			frac := float64(s) / float64(k+1)
			// Shape points follow the straight line with slight jitter.
			jx := (rng.Float64() - 0.5) * e.len * 0.05
			jy := (rng.Float64() - 0.5) * e.len * 0.05
			nx := clampSpan(xs[e.u] + (xs[e.v]-xs[e.u])*frac + jx)
			ny := clampSpan(ys[e.u] + (ys[e.v]-ys[e.u])*frac + jy)
			mid := g.AddNode(nx, ny)
			addSeg(prev, mid, quality)
			prev = mid
		}
		addSeg(prev, graph.NodeID(e.v), quality)
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("netgen: generated graph invalid: %w", err)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("netgen: generated graph disconnected")
	}
	return g, nil
}

// samplePoints draws clustered road-network-like coordinates: a few dense
// population centers holding most junctions, over a sparse rural
// background. The concentration matters for reproduction fidelity: in the
// DCW networks a fixed query range reaches a large node fraction because
// sources are, with high probability, inside dense areas.
func samplePoints(rng *rand.Rand, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	clusters := 6 + n/400
	cx := make([]float64, clusters)
	cy := make([]float64, clusters)
	cr := make([]float64, clusters)
	for i := range cx {
		cx[i] = Span * (0.1 + 0.8*rng.Float64())
		cy[i] = Span * (0.1 + 0.8*rng.Float64())
		cr[i] = Span * (0.04 + 0.08*rng.Float64())
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.55 { // 55% clustered
			c := rng.Intn(clusters)
			xs[i] = cx[c] + rng.NormFloat64()*cr[c]
			ys[i] = cy[c] + rng.NormFloat64()*cr[c]
		} else { // 45% background
			xs[i] = rng.Float64() * Span
			ys[i] = rng.Float64() * Span
		}
	}
	return xs, ys
}

func clampSpan(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > Span {
		return Span
	}
	return v
}

// normalizePoints rescales coordinates into [0, Span]² preserving aspect
// ratio (the paper's normalization), before any edge weight is derived.
func normalizePoints(xs, ys []float64) {
	minX, minY := math.MaxFloat64, math.MaxFloat64
	maxX, maxY := -math.MaxFloat64, -math.MaxFloat64
	for i := range xs {
		minX, maxX = math.Min(minX, xs[i]), math.Max(maxX, xs[i])
		minY, maxY = math.Min(minY, ys[i]), math.Max(maxY, ys[i])
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		return
	}
	s := Span / ext
	for i := range xs {
		xs[i] = (xs[i] - minX) * s
		ys[i] = (ys[i] - minY) * s
	}
}

// candidate is a potential edge with squared length.
type candidate struct {
	u, v int
	d    float64
}

// knnCandidates returns, for each point, edges to its k nearest neighbors,
// deduplicated, found with a uniform grid index (expected O(n·k)).
func knnCandidates(xs, ys []float64, k int) []candidate {
	n := len(xs)
	side := int(math.Max(1, math.Sqrt(float64(n)/2)))
	minX, minY := math.MaxFloat64, math.MaxFloat64
	maxX, maxY := -math.MaxFloat64, -math.MaxFloat64
	for i := 0; i < n; i++ {
		minX, maxX = math.Min(minX, xs[i]), math.Max(maxX, xs[i])
		minY, maxY = math.Min(minY, ys[i]), math.Max(maxY, ys[i])
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		ext = 1
	}
	cellOf := func(i int) (int, int) {
		cx := int((xs[i] - minX) / ext * float64(side))
		cy := int((ys[i] - minY) / ext * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	buckets := make([][]int, side*side)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[cy*side+cx] = append(buckets[cy*side+cx], i)
	}

	type nb struct {
		idx int
		d   float64
	}
	seen := make(map[uint64]bool, n*k)
	var out []candidate
	best := make([]nb, 0, 64)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		best = best[:0]
		// Expand rings until we have k neighbors and one extra ring margin.
		for ring := 0; ring < side; ring++ {
			added := false
			for dy := -ring; dy <= ring; dy++ {
				for dx := -ring; dx <= ring; dx++ {
					if maxAbs(dx, dy) != ring {
						continue
					}
					x, y := cx+dx, cy+dy
					if x < 0 || x >= side || y < 0 || y >= side {
						continue
					}
					for _, j := range buckets[y*side+x] {
						if j == i {
							continue
						}
						best = append(best, nb{j, dist2(xs, ys, i, j)})
						added = true
					}
				}
			}
			if len(best) >= k && (ring > 0 || !added) {
				break
			}
		}
		sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
		if len(best) > k {
			best = best[:k]
		}
		for _, b := range best {
			lo, hi := i, b.idx
			if lo > hi {
				lo, hi = hi, lo
			}
			key := uint64(lo)<<32 | uint64(hi)
			if !seen[key] {
				seen[key] = true
				out = append(out, candidate{lo, hi, b.d})
			}
		}
	}
	return out
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

func dist2(xs, ys []float64, u, v int) float64 {
	dx, dy := xs[u]-xs[v], ys[u]-ys[v]
	return dx*dx + dy*dy
}

// nearestCrossPair finds the closest pair of points in different union-find
// components (linear scan; only runs for the rare residual stitching).
func nearestCrossPair(xs, ys []float64, uf *unionFind) (int, int) {
	bu, bv, bd := -1, -1, math.MaxFloat64
	// Pick the smallest component and scan against all others.
	rootCount := map[int]int{}
	for i := range xs {
		rootCount[uf.find(i)]++
	}
	smallRoot, smallSize := -1, math.MaxInt64
	for r, c := range rootCount {
		if c < smallSize {
			smallRoot, smallSize = r, c
		}
	}
	for i := range xs {
		if uf.find(i) != smallRoot {
			continue
		}
		for j := range xs {
			if uf.find(j) == smallRoot {
				continue
			}
			if d := dist2(xs, ys, i, j); d < bd {
				bu, bv, bd = i, j, d
			}
		}
	}
	return bu, bv
}

// unionFind is a standard disjoint-set with path halving and union by size.
type unionFind struct {
	parent     []int
	size       []int
	components int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n), components: n}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.components--
	return true
}
