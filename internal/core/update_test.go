package core

import (
	"bytes"
	cryptorand "crypto/rand"
	"fmt"
	"math/rand"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/workload"
)

// patch derives p's successor from b through the registry, as p's type.
func patch[T Provider](t testing.TB, b *UpdateBatch, p T) (T, *PatchStats) {
	t.Helper()
	np, st, err := b.Patch(p)
	if err != nil {
		t.Fatalf("patch %s: %v", p.Method(), err)
	}
	return np.(T), st
}

// randomUpdates picks `count` random existing edges and re-weights them by
// factors that cover decreases, increases and exact no-ops.
func randomUpdates(g graph.View, rng *rand.Rand, count int) []EdgeUpdate {
	factors := []float64{0.5, 0.93, 1.0, 1.5, 2.0}
	ups := make([]EdgeUpdate, 0, count)
	for len(ups) < count {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		e := adj[rng.Intn(len(adj))]
		w := e.W * factors[rng.Intn(len(factors))]
		ups = append(ups, EdgeUpdate{U: u, V: e.To, W: w})
	}
	return ups
}

// thaw returns a builder holding net — what a from-scratch rebuild of an
// updated owner's network starts from — through the one SPVG codec.
func thaw(t testing.TB, net *graph.CSR) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestIncrementalUpdateMatchesRebuild is the cross-validation gate of the
// update pipeline: after seeded random update sequences, every patched
// provider must carry roots, signatures and per-query proof encodings
// byte-identical to a from-scratch re-outsource of the updated network
// (with the landmark placement pinned — selection is re-made only on full
// re-outsource).
func TestIncrementalUpdateMatchesRebuild(t *testing.T) {
	cases := []struct {
		name         string
		seed         int64
		steps, batch int
	}{
		{"single-updates", 11, 4, 1},
		{"batched-updates", 23, 2, 5},
		{"long-sequence", 37, 6, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			runUpdateCrossValidation(t, g, tc.seed, tc.steps, tc.batch)
		})
	}
	// Exact ties: an integer-weight grid whose batches send edges to 0 and
	// back, some within one batch, so repair runs step by step through
	// zero-weight cycles and equal-length alternatives.
	t.Run("integer-grid-zero-ties", func(t *testing.T) {
		const side = 8
		rng := rand.New(rand.NewSource(61))
		g := graph.New(side * side)
		for i := 0; i < side*side; i++ {
			g.AddNode(float64(i%side)*100, float64(i/side)*100)
		}
		for i := 0; i < side*side; i++ {
			if i%side+1 < side {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), float64(1+rng.Intn(3)))
			}
			if i+side < side*side {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+side), float64(1+rng.Intn(3)))
			}
		}
		crossValidate(t, g, 61, 6, func(net graph.View, rng *rand.Rand) []EdgeUpdate {
			return zeroTieUpdates(net, rng, 4)
		})
	})
}

// zeroTieUpdates draws at least count re-weightings of an integer-weight
// network: an edge to 0, an edge to a small integer, or an edge to 0 and
// back to its weight within the batch.
func zeroTieUpdates(g graph.View, rng *rand.Rand, count int) []EdgeUpdate {
	var ups []EdgeUpdate
	for len(ups) < count {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		adj := g.Neighbors(u)
		e := adj[rng.Intn(len(adj))]
		switch rng.Intn(3) {
		case 0:
			ups = append(ups, EdgeUpdate{U: u, V: e.To, W: 0})
		case 1:
			ups = append(ups, EdgeUpdate{U: u, V: e.To, W: float64(1 + rng.Intn(3))})
		default:
			ups = append(ups, EdgeUpdate{U: u, V: e.To, W: 0}, EdgeUpdate{U: e.To, V: u, W: e.W})
		}
	}
	return ups
}

// TestIncrementalUpdateMatchesRebuildLineGraph pins row repair across
// bridges deterministically: on a path graph every edge is a bridge and
// updates near the middle put landmarks and borders on both sides of the
// cut, so repair from either side must reproduce the rebuild byte for
// byte.
func TestIncrementalUpdateMatchesRebuildLineGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 48
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(float64(i)*200, 50*rng.Float64())
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 50+200*rng.Float64())
	}
	runUpdateCrossValidation(t, g, 51, 5, 1)
}

func runUpdateCrossValidation(t *testing.T, g *graph.Graph, seed int64, steps, batch int) {
	t.Helper()
	crossValidate(t, g, seed, steps, func(net graph.View, rng *rand.Rand) []EdgeUpdate {
		return randomUpdates(net, rng, batch)
	})
}

// crossValidate applies steps batches drawn by next to every method's
// provider and holds the result byte-identical to a rebuild.
func crossValidate(t *testing.T, g *graph.Graph, seed int64, steps int, next func(graph.View, *rand.Rand) []EdgeUpdate) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Landmarks = 6
	cfg.Cells = 9
	signer, err := sig.GenerateKey(cryptorand.Reader, cfg.RSABits)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwnerWithSigner(g, cfg, signer)
	if err != nil {
		t.Fatal(err)
	}
	w := outsourceWorld(t, g, owner)
	pinned := w.ldm.Landmarks()

	rng := rand.New(rand.NewSource(seed))
	wantEpoch := int64(0)
	for step := 0; step < steps; step++ {
		ups := next(owner.Graph(), rng)
		b, err := owner.ApplyUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.DirtyNodes()) > 0 {
			wantEpoch++ // all-no-op batches don't bump the epoch
		}
		w.dij, _ = patch(t, b, w.dij)
		w.full, _ = patch(t, b, w.full)
		w.ldm, _ = patch(t, b, w.ldm)
		w.hyp, _ = patch(t, b, w.hyp)
	}
	if owner.Epoch() != wantEpoch {
		t.Fatalf("owner epoch = %d, want %d", owner.Epoch(), wantEpoch)
	}

	// From-scratch rebuild of the updated network: same key, same
	// config, landmark placement and quantization step pinned to
	// the original outsourcing (updates never re-derive either).
	cfg2 := cfg
	cfg2.PinnedLandmarks = pinned
	cfg2.PinnedLambda = w.ldm.Lambda()
	g2 := thaw(t, owner.Graph())
	owner2, err := NewOwnerWithSigner(g2, cfg2, signer)
	if err != nil {
		t.Fatal(err)
	}
	r := outsourceWorld(t, g2, owner2)

	mustEq := func(what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between incremental update and rebuild", what)
		}
	}
	mustEq("DIJ root", w.dij.ads.Root(), r.dij.ads.Root())
	mustEq("DIJ root sig", w.dij.rootSig, r.dij.rootSig)
	mustEq("FULL network root", w.full.ads.Root(), r.full.ads.Root())
	mustEq("FULL network sig", w.full.netSig, r.full.netSig)
	mustEq("FULL forest root", w.full.forest.Root(), r.full.forest.Root())
	mustEq("FULL forest sig", w.full.distSig, r.full.distSig)
	mustEq("LDM root", w.ldm.ads.Root(), r.ldm.ads.Root())
	mustEq("LDM root sig", w.ldm.rootSig, r.ldm.rootSig)
	if w.ldm.hints.Lambda != r.ldm.hints.Lambda {
		t.Fatalf("LDM lambda %v vs rebuild %v", w.ldm.hints.Lambda, r.ldm.hints.Lambda)
	}
	mustEq("HYP network root", w.hyp.ads.Root(), r.hyp.ads.Root())
	mustEq("HYP network sig", w.hyp.netSig, r.hyp.netSig)
	if (w.hyp.distMBT == nil) != (r.hyp.distMBT == nil) {
		t.Fatal("HYP distance tree presence differs")
	}
	if w.hyp.distMBT != nil {
		mustEq("HYP distance root", w.hyp.distMBT.Root(), r.hyp.distMBT.Root())
		mustEq("HYP distance sig", w.hyp.distSig, r.hyp.distSig)
	}

	// Per-method proofs must be byte-identical and verify.
	qs, err := workload.Generate(owner.Graph(), 5, 2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	verifier := owner.Verifier()
	for qi, q := range qs {
		for _, m := range Methods() {
			what := fmt.Sprintf("%s q%d", m, qi)
			p1, err1 := testProvider(t, w, m).QueryProof(q.S, q.T)
			p2, err2 := testProvider(t, r, m).QueryProof(q.S, q.T)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: query errors %v / %v", what, err1, err2)
			}
			if !bytes.Equal(p1.AppendBinary(nil), p2.AppendBinary(nil)) {
				t.Fatalf("%s: proof encodings differ between incremental update and rebuild", what)
			}
			if err := VerifyProof(verifier, m, q.S, q.T, p1); err != nil {
				t.Fatalf("%s: patched provider's proof rejected: %v", what, err)
			}
		}
	}
}

// TestNoOpUpdateLeavesEverythingUntouched pins the zero-work fast path: a
// re-weighting to the current weight dirties nothing, reuses every root
// and signature by pointer-or-bytes, and no method's patch reports a stale
// leaf.
func TestNoOpUpdateLeavesEverythingUntouched(t *testing.T) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	owner, err := NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := outsourceWorld(t, g, owner)
	dij := w.dij
	var u graph.NodeID
	for g.Degree(u) == 0 {
		u++
	}
	e := g.Neighbors(u)[0]
	b, err := owner.ApplyUpdates([]EdgeUpdate{{U: u, V: e.To, W: e.W}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.DirtyNodes()) != 0 {
		t.Fatalf("no-op update marked %d nodes dirty", len(b.DirtyNodes()))
	}
	for _, p := range []Provider{w.full, w.ldm, w.hyp} {
		if _, st := patch(t, b, p); len(st.Stale) != 0 {
			t.Errorf("no-op %s patch reports stale leaves %v", p.Method(), st.Stale)
		}
	}
	p2, st := patch(t, b, dij)
	if st.LeavesPatched != 0 || len(st.Stale) != 0 {
		t.Fatalf("no-op update patched %d leaves, %d stale", st.LeavesPatched, len(st.Stale))
	}
	if !bytes.Equal(p2.ads.Root(), dij.ads.Root()) || !bytes.Equal(p2.rootSig, dij.rootSig) {
		t.Fatal("no-op update changed root or signature")
	}
}

// TestOwnerDoesNotAliasBuilder pins that NewOwner freezes the caller's
// builder instead of adopting it: an update batch publishes a new network
// and leaves both the builder and the previous epoch's network as they were.
func TestOwnerDoesNotAliasBuilder(t *testing.T) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := owner.Graph()
	u := graph.NodeID(5)
	e := g.Neighbors(u)[0]
	if _, err := owner.ApplyUpdates([]EdgeUpdate{{U: u, V: e.To, W: 2 * e.W}}); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(u, e.To); w != e.W {
		t.Errorf("the builder passed to NewOwner reads %v after the update, want its own %v", w, e.W)
	}
	if w, _ := before.EdgeWeight(u, e.To); w != e.W {
		t.Errorf("the pre-update network reads %v, want %v", w, e.W)
	}
	if w, _ := owner.Graph().EdgeWeight(u, e.To); w != 2*e.W {
		t.Errorf("the owner's network reads %v after the update, want %v", w, 2*e.W)
	}
}

// TestApplyUpdatesRejectsBadInput pins the validation surface.
func TestApplyUpdatesRejectsBadInput(t *testing.T) {
	g, err := netgen.Generate(netgen.DE, netgen.Config{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.ApplyUpdates(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := owner.ApplyUpdates([]EdgeUpdate{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	var u graph.NodeID
	for g.Degree(u) == 0 {
		u++
	}
	e := g.Neighbors(u)[0]
	if _, err := owner.ApplyUpdates([]EdgeUpdate{{U: u, V: e.To, W: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := owner.ApplyUpdates([]EdgeUpdate{{U: graph.NodeID(g.NumNodes()), V: 0, W: 1}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}
