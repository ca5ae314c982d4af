// Package landmark implements the authenticated hints of the LDM method
// (paper §V-A): landmark selection, per-node landmark distance vectors Ψ(v)
// (Eq. 2), triangle-inequality lower bounds (Eq. 3, Theorem 1), b-bit
// distance quantization (Eq. 5, Lemma 3) and ξ-threshold distance
// compression with reference nodes (Lemma 4).
//
// All quantized distances are held as integer units of the quantization step
// λ = Dmax / (2^b − 1): distb(s_i, v) = λ · unit. Working in units keeps the
// arithmetic exact; values convert to distances only at the edges.
package landmark

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/par"
	"github.com/authhints/spv/internal/sp"
)

// Strategy selects how landmark nodes are chosen.
type Strategy string

const (
	// Farthest implements the farthest-point heuristic of Goldberg &
	// Harrelson [26]: each new landmark maximizes the minimum graph distance
	// to the already chosen ones. Selection reuses the same Dijkstra runs
	// that produce the distance vectors, so it costs nothing extra.
	Farthest Strategy = "farthest"
	// RandomSel picks c distinct random nodes.
	RandomSel Strategy = "random"
)

// Options configures hint construction.
type Options struct {
	C        int      // number of landmarks (paper: 50..800, default 200)
	Bits     int      // quantization bits b (paper default 12)
	Xi       float64  // compression threshold ξ (paper default 50.0)
	Strategy Strategy // landmark selection strategy
	Seed     int64    // seed for RandomSel and the Farthest starting point

	// Fixed pins the landmark set, bypassing Strategy/Seed selection. The
	// incremental update pipeline rebuilds hints against the original
	// placement (selection is a placement choice, re-made only on a full
	// re-outsource), and cross-validation rebuilds use it to reproduce an
	// updated owner's hints byte for byte.
	Fixed []graph.NodeID

	// FixedLambda pins the quantization step instead of deriving it from
	// the observed Dmax. λ is a public parameter bound into the root
	// signature, and deriving it per build makes every payload ripple
	// whenever an update stretches the longest landmark distance — so the
	// update pipeline pins the outsource-time λ. Distances beyond the
	// pinned scale saturate at the top unit, which only loosens lower
	// bounds (Lemma 3 keeps holding); zero derives λ as usual.
	FixedLambda float64

	// Trees, when not nil, is handed each landmark's search as Build runs
	// it, in whichever selection made the landmark: how a certificate
	// issued with the hints takes the landmarks' trees without searching
	// again.
	Trees sp.TreeSink
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.C < 1 {
		return fmt.Errorf("landmark: c = %d must be positive", o.C)
	}
	if o.Bits < 1 || o.Bits > 30 {
		return fmt.Errorf("landmark: bits = %d out of range [1, 30]", o.Bits)
	}
	if o.Xi < 0 || math.IsNaN(o.Xi) {
		return fmt.Errorf("landmark: ξ = %v must be non-negative", o.Xi)
	}
	if o.FixedLambda < 0 || math.IsNaN(o.FixedLambda) || math.IsInf(o.FixedLambda, 0) {
		return fmt.Errorf("landmark: pinned λ = %v must be a non-negative finite value", o.FixedLambda)
	}
	switch o.Strategy {
	case Farthest, RandomSel:
	default:
		return fmt.Errorf("landmark: unknown strategy %q", o.Strategy)
	}
	return nil
}

// Hints is the owner-computed LDM hint set for a graph.
type Hints struct {
	Landmarks []graph.NodeID // the chosen landmarks s_1..s_c
	Bits      int            // quantization bits b
	Lambda    float64        // quantization step λ
	Dmax      float64        // maximum landmark distance observed

	// Dists[i] is landmark i's exact distance row — the Dijkstra output the
	// quantized units derive from. Retained owner-side so an edge-weight
	// update repairs the rows in place; everything below (Dmax, λ, Units,
	// compression) is deterministically re-derived.
	Dists [][]float64

	// Units[v][i] is the quantized distance unit of node v to landmark i:
	// distb(s_i, v) = Lambda * Units[v][i]. Retained for every node so the
	// provider can serve any query; clients only ever see packed payloads.
	Units [][]uint32

	// Ref[v] is the reference node v.θ (Ref[v] == v for representatives and
	// uncompressed nodes); Eps[v] is the compression error v.ε in λ units.
	Ref []graph.NodeID
	Eps []uint32
}

// Stats reports what construction did, for experiment logging.
type Stats struct {
	Compressed   int // nodes represented by a reference
	Uncompressed int // nodes carrying their own vector
}

// Build computes the full LDM hint set: select landmarks, compute distance
// vectors (c Dijkstra runs), quantize (Eq. 5), compress (ξ-greedy).
//
// Known-upfront landmark sets (RandomSel, Options.Fixed) fan their Dijkstra
// runs across GOMAXPROCS workers on pooled workspaces; Farthest selection
// is inherently sequential (each pick depends on the previous row's
// distances), so only its derivation stages parallelize. Either way the
// resulting hints are byte-identical to a single-threaded build.
func Build(view *graph.CSR, opts Options) (*Hints, Stats, error) {
	var stats Stats
	if err := opts.Validate(); err != nil {
		return nil, stats, err
	}
	n := view.NumNodes()
	if n == 0 {
		return nil, stats, fmt.Errorf("landmark: empty graph")
	}

	var landmarks []graph.NodeID
	var dists [][]float64
	if len(opts.Fixed) > 0 {
		for _, l := range opts.Fixed {
			if l < 0 || int(l) >= n {
				return nil, stats, fmt.Errorf("landmark: fixed landmark %d out of range [0, %d)", l, n)
			}
		}
		landmarks = append([]graph.NodeID(nil), opts.Fixed...)
		dists = parallelRows(view, landmarks, opts.Trees)
	} else {
		c := opts.C
		if c > n {
			c = n
		}
		landmarks, dists = selectLandmarks(view, c, opts.Strategy, opts.Seed, opts.Trees)
	}
	h, stats := FromRows(landmarks, dists, opts)
	return h, stats, nil
}

// FromRows derives the complete hint set from a landmark placement and its
// exact distance rows: Dmax, λ, quantized units (Eq. 5, parallel across
// nodes) and ξ-compression. It is the deterministic tail of Build, shared
// with the incremental update pipeline, which re-runs only dirty rows and
// re-derives the rest. dists is retained, not copied.
func FromRows(landmarks []graph.NodeID, dists [][]float64, opts Options) (*Hints, Stats) {
	c := len(landmarks)
	n := 0
	if c > 0 {
		n = len(dists[0])
	}

	// Dmax over all finite landmark distances.
	dmax := 0.0
	for _, row := range dists {
		for _, d := range row {
			if d != sp.Unreachable && d > dmax {
				dmax = d
			}
		}
	}
	lambda := opts.FixedLambda
	if lambda == 0 {
		lambda = dmax / float64((uint64(1)<<opts.Bits)-1)
	}
	if lambda == 0 {
		lambda = 1 // degenerate single-point graphs
	}

	h := &Hints{
		Landmarks: landmarks,
		Bits:      opts.Bits,
		Lambda:    lambda,
		Dmax:      dmax,
		Dists:     dists,
		Units:     make([][]uint32, n),
		Ref:       make([]graph.NodeID, n),
		Eps:       make([]uint32, n),
	}
	maxUnit := uint32((uint64(1) << opts.Bits) - 1)
	par.Chunks(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := make([]uint32, c)
			for i := 0; i < c; i++ {
				d := dists[i][v]
				if d == sp.Unreachable {
					row[i] = maxUnit // unreachable saturates the scale
					continue
				}
				u := uint32(math.Round(d / lambda))
				if u > maxUnit {
					u = maxUnit
				}
				row[i] = u
			}
			h.Units[v] = row
			h.Ref[v] = graph.NodeID(v)
		}
	})

	stats := h.compress(opts.Xi)
	return h, stats
}

// QuantizationUnchanged reports whether quantizing dists under h's
// (pinned) λ reproduces h's units exactly — the common outcome of a small
// re-weighting, where distances move by less than half a quantization
// step. When true, the caller can reuse h's derived state (units,
// compression, payloads) wholesale and only swap the exact rows.
func (h *Hints) QuantizationUnchanged(dists [][]float64) bool {
	maxUnit := uint32((uint64(1) << h.Bits) - 1)
	n := len(h.Units)
	var diff atomic.Bool // workers only ever set; reads race-free
	par.Chunks(n, 0, func(lo, hi int) {
		for v := lo; v < hi && !diff.Load(); v++ {
			row := h.Units[v]
			for i := range row {
				d := dists[i][v]
				u := maxUnit
				if d != sp.Unreachable {
					if u = uint32(math.Round(d / h.Lambda)); u > maxUnit {
						u = maxUnit
					}
				}
				if u != row[i] {
					diff.Store(true)
					return
				}
			}
		}
	})
	return !diff.Load()
}

// WithRows returns hints sharing every derived structure with h but
// carrying the given exact rows — valid only when QuantizationUnchanged
// held for them.
func (h *Hints) WithRows(dists [][]float64) *Hints {
	nh := *h
	nh.Dists = dists
	return &nh
}

// parallelRows computes every landmark's full distance row concurrently,
// one pooled workspace per worker, handing each search to trees when that
// is not nil. Rows are independent, so the output matches a sequential run
// bit for bit.
func parallelRows(g *graph.CSR, landmarks []graph.NodeID, trees sp.TreeSink) [][]float64 {
	dists := make([][]float64, len(landmarks))
	par.Work(len(landmarks), func(i int) {
		w := sp.AcquireWorkspace(g.NumNodes())
		defer sp.ReleaseWorkspace(w)
		dists[i] = w.DijkstraRow(g, landmarks[i], nil)
		if trees != nil {
			trees(landmarks[i], w)
		}
	})
	return dists
}

// selectLandmarks returns c landmarks and their exact distance vectors,
// handing each landmark's search to trees when that is not nil.
func selectLandmarks(g *graph.CSR, c int, strat Strategy, seed int64, trees sp.TreeSink) ([]graph.NodeID, [][]float64) {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	landmarks := make([]graph.NodeID, 0, c)

	switch strat {
	case RandomSel:
		// Partial Fisher–Yates over a virtual identity array: only the c
		// displaced slots live in the map, so selection costs O(c) extra
		// memory instead of rand.Perm's O(n) — the difference between a
		// hiccup and an allocation spike on million-node graphs.
		moved := make(map[int]int, c)
		for i := 0; i < c; i++ {
			j := i + rng.Intn(n-i)
			vj, ok := moved[j]
			if !ok {
				vj = j
			}
			if vi, ok := moved[i]; ok {
				moved[j] = vi
			} else {
				moved[j] = i
			}
			landmarks = append(landmarks, graph.NodeID(vj))
		}
		return landmarks, parallelRows(g, landmarks, trees)
	default: // Farthest
		dists := make([][]float64, 0, c)
		w := sp.AcquireWorkspace(n)
		defer sp.ReleaseWorkspace(w)
		cur := graph.NodeID(rng.Intn(n))
		minDist := make([]float64, n)
		for i := range minDist {
			minDist[i] = math.MaxFloat64
		}
		for len(landmarks) < c {
			landmarks = append(landmarks, cur)
			row := w.DijkstraRow(g, cur, nil)
			dists = append(dists, row)
			if trees != nil {
				trees(cur, w)
			}
			var next graph.NodeID
			far := -1.0
			for v := 0; v < n; v++ {
				d := row[v]
				if d == sp.Unreachable {
					continue // keep landmarks inside the component
				}
				if d < minDist[v] {
					minDist[v] = d
				}
				if minDist[v] > far {
					far = minDist[v]
					next = graph.NodeID(v)
				}
			}
			if far <= 0 {
				break // all nodes are landmarks already
			}
			cur = next
		}
		return landmarks, dists
	}
}

// C returns the number of landmarks.
func (h *Hints) C() int { return len(h.Landmarks) }

// unitDiff returns ε(u, v) in λ units: max_i |distb(s_i,u) − distb(s_i,v)|/λ.
func (h *Hints) unitDiff(u, v graph.NodeID) uint32 {
	var m uint32
	ru, rv := h.Units[u], h.Units[v]
	for i := range ru {
		var d uint32
		if ru[i] > rv[i] {
			d = ru[i] - rv[i]
		} else {
			d = rv[i] - ru[i]
		}
		if d > m {
			m = d
		}
	}
	return m
}

// LooseLB returns distLB^loose(u, v) of Eq. 6, from the quantized vectors
// (ignoring compression). Lemma 3 guarantees LooseLB ≤ distLB ≤ dist.
func (h *Hints) LooseLB(u, v graph.NodeID) float64 {
	d := h.unitDiff(u, v)
	if d <= 1 {
		return 0
	}
	return float64(d-1) * h.Lambda
}

// LB returns the compressed lower bound of Lemma 4, the bound both provider
// and client use:
//
//	max{0, distLB^loose(u.θ, v.θ) − (u.ε + v.ε)·λ}
//
// For uncompressed nodes θ = self and ε = 0, so LB degrades gracefully to
// LooseLB.
func (h *Hints) LB(u, v graph.NodeID) float64 {
	base := h.LooseLB(h.Ref[u], h.Ref[v])
	penalty := float64(h.Eps[u]+h.Eps[v]) * h.Lambda
	if base <= penalty {
		return 0
	}
	return base - penalty
}

// compress runs the greedy ξ-compression: repeatedly pick the representative
// covering the most still-uncompressed nodes within quantized difference ξ,
// until no representative covers anyone but itself.
//
// Exactly evaluating every candidate each round is O(rounds·n²·c); to stay
// practical on road networks the candidate scan works on a Hilbert-ordered
// sweep window (spatially close nodes have similar vectors), which preserves
// the Lemma 4 invariants exactly — ε values are always computed, never
// estimated — and only affects how close coverage gets to the optimum.
func (h *Hints) compress(xi float64) Stats {
	n := len(h.Units)
	// ξ in λ units, floored: ε(v, rep) ≤ ξ must hold in real distance, and
	// ε_units·λ ≤ ξ ⇔ ε_units ≤ ξ/λ.
	xiUnits := uint32(math.Floor(xi / h.Lambda))

	var stats Stats
	if xiUnits == 0 || n == 1 {
		stats.Uncompressed = n
		return stats
	}

	// Hilbert-style sweep: order nodes by their first two vector entries
	// (cheap proxy for vector similarity), then greedily grow runs around a
	// representative.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if len(h.Units[0]) >= 1 {
		sortByVector(order, h.Units)
	}
	assigned := make([]bool, n)
	for start := 0; start < n; start++ {
		v := order[start]
		if assigned[v] {
			continue
		}
		rv := h.Units[v]
		// v becomes a representative; absorb subsequent unassigned nodes in
		// the sweep while they are within ξ.
		assigned[v] = true
		h.Ref[v] = graph.NodeID(v)
		h.Eps[v] = 0
		stats.Uncompressed++
		for j := start + 1; j < n; j++ {
			w := order[j]
			if assigned[w] {
				continue
			}
			// ε(w, v), abandoned at the first coordinate past ξ.
			var eps uint32
			for i, a := range h.Units[w] {
				d := max(a, rv[i]) - min(a, rv[i])
				if eps = max(eps, d); d > xiUnits {
					break
				}
			}
			if eps > xiUnits {
				// The sweep is sorted by vector proximity; once the primary
				// coordinate alone exceeds ξ no later node can qualify.
				if primaryGap(h.Units[order[j]], h.Units[v]) > xiUnits {
					break
				}
				continue
			}
			assigned[w] = true
			h.Ref[w] = graph.NodeID(v)
			h.Eps[w] = eps
			stats.Compressed++
		}
	}
	return stats
}

func primaryGap(a, b []uint32) uint32 {
	if len(a) == 0 {
		return 0
	}
	if a[0] > b[0] {
		return a[0] - b[0]
	}
	return b[0] - a[0]
}

// sortByVector orders node indices by (Units[0], Units[1], ...) ascending —
// an in-place radix-free comparison sort on the first few coordinates.
func sortByVector(order []int, units [][]uint32) {
	lessVec := func(a, b []uint32) bool {
		limit := len(a)
		if limit > 4 {
			limit = 4 // first coordinates dominate similarity
		}
		for i := 0; i < limit; i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	quicksortBy(order, func(i, j int) bool { return lessVec(units[i], units[j]) })
}

func quicksortBy(a []int, less func(i, j int) bool) {
	if len(a) < 2 {
		return
	}
	mid := a[len(a)/2]
	lo, eq, hi := 0, 0, len(a)
	for eq < hi {
		switch {
		case less(a[eq], mid):
			a[lo], a[eq] = a[eq], a[lo]
			lo++
			eq++
		case less(mid, a[eq]):
			hi--
			a[eq], a[hi] = a[hi], a[eq]
		default:
			eq++
		}
	}
	quicksortBy(a[:lo], less)
	quicksortBy(a[hi:], less)
}
