package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/sp"
	"github.com/authhints/spv/internal/workload"
)

// TestMethodsCanonicalOrder pins Engine.Methods' ordering contract:
// methods list in the registry's canonical order regardless of the order
// providers were registered in, so /stats and /verifier output is stable
// across runs, replicas and registration call sites.
func TestMethodsCanonicalOrder(t *testing.T) {
	w := testWorld(t)
	e := NewEngine(Options{})
	// Deliberately register in a scrambled, non-canonical order.
	for _, p := range []core.Provider{w.hyp, w.dij, w.ldm, w.full} {
		e.Register(p)
	}
	want := core.RegisteredMethods()
	if got := e.Methods(); !slices.Equal(got, want) {
		t.Fatalf("Methods() = %v, want canonical %v", got, want)
	}
	// A subset keeps the canonical relative order too.
	e2 := NewEngine(Options{})
	e2.Register(w.hyp)
	e2.Register(w.dij)
	if got := e2.Methods(); !slices.Equal(got, []core.Method{core.DIJ, core.HYP}) {
		t.Fatalf("subset Methods() = %v, want [DIJ HYP]", got)
	}
}

// TestSwapUnregisteredMethod pins the engine-side error when a hot-swap
// targets a method the engine never registered.
func TestSwapUnregisteredMethod(t *testing.T) {
	w := testWorld(t)
	e := NewEngine(Options{})
	e.Register(w.ldm)
	if err := e.Swap(w.dij, &core.PatchStats{Method: core.DIJ}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Swap on unregistered method = %v, want ErrUnknownMethod", err)
	}
}

// TestSwapWithoutStatsDropsCache pins the fallback ApplyUpdates' contract
// names: a provider re-outsourced after an owner-side re-weighting and
// swapped in without patch stats must not leave the old provider's proofs
// cached — they are authentic under their old root, and no longer optimal.
func TestSwapWithoutStatsDropsCache(t *testing.T) {
	dep, _, g := snapWorld(t, 41)
	e := dep.Engine()
	qs, err := workload.Generate(g, 1, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Method: core.DIJ, VS: qs[0].S, VT: qs[0].T}
	old, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := e.Query(q); !again.Cached {
		t.Fatal("warmed key is not served from the cache")
	}
	pr, _, err := core.DecodeProof(core.DIJ, old.Proof)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := pr.Result()
	w, _ := g.EdgeWeight(path[0], path[1])
	if _, err := dep.Owner().ApplyUpdates([]core.EdgeUpdate{{U: path[0], V: path[1], W: w * 1.01}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := dep.Owner().Outsource(core.DIJ)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().CacheInvalidated
	if err := e.Swap(fresh, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheInvalidated - before; got < 1 {
		t.Errorf("swap without stats counted %d invalidated entries, want every DIJ entry", got)
	}
	a, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sp.DijkstraTo(dep.Owner().Graph(), q.VS, q.VT)
	if a.Cached || a.Dist != want || a.Dist == old.Dist {
		t.Fatalf("after Swap(p, nil): cached=%v dist=%v, want a fresh proof of %v (was %v)", a.Cached, a.Dist, want, old.Dist)
	}
	verifyAnswer(t, dep.Owner().Verifier(), a)
}

// TestApplyUpdatesAtomic plants a provider whose patch fails behind two
// that patch fine — a lazily opened shell over a HYP section with a flipped
// byte, which fails to hydrate — and requires the failed batch to leave no
// trace: same proofs from the cache, same owner network, weights and
// epoch, same certificate; then the same batch applies cleanly.
func TestApplyUpdatesAtomic(t *testing.T) {
	dep, _, g := snapWorld(t, 43)
	methods := dep.Methods()
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f, err := snapshot.NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	hypImpl, _ := core.LookupMethod(core.HYP)
	for _, sec := range f.Sections() {
		if sec.Kind == hypImpl.SnapshotKind() {
			data[sec.Offset+12] ^= 0x01 // first payload byte, past the 12-byte head
		}
	}
	path := filepath.Join(t.TempDir(), "flipped.spv")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	set, err := core.OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := dep.Certify(); err != nil {
		t.Fatal(err)
	}
	healthy := dep.provs[core.HYP]
	dep.provs[core.HYP] = set.Provider(core.HYP)

	qs, err := workload.Generate(g, 6, 2000, 19)
	if err != nil {
		t.Fatal(err)
	}
	ups := sampleUpdates(g, 1.5)
	weights := func() (ws []float64) {
		for _, up := range ups {
			w, _ := dep.Owner().Graph().EdgeWeight(up.U, up.V)
			ws = append(ws, w)
		}
		return ws
	}
	before, weights0, stats0 := engineProofs(t, dep.Engine(), qs, methods), weights(), dep.Engine().Stats()
	provs0 := []core.Provider{dep.provs[core.DIJ], dep.provs[core.LDM]}

	if _, err := dep.ApplyUpdates(ups); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("ApplyUpdates over a provider that cannot hydrate = %v, want ErrCorrupt", err)
	}
	for i, wire := range engineProofs(t, dep.Engine(), qs, methods) {
		if !bytes.Equal(wire, before[i]) {
			t.Fatalf("proof %d changed across a failed batch", i)
		}
	}
	stats := dep.Engine().Stats()
	if stats.Epoch != stats0.Epoch || stats.CacheInvalidated != stats0.CacheInvalidated ||
		stats.Hits != stats0.Hits+int64(len(before)) {
		t.Errorf("failed batch moved the engine: %+v, was %+v", stats, stats0)
	}
	if !slices.Equal(weights(), weights0) || dep.Owner().Epoch() != 0 {
		t.Errorf("failed batch moved the owner: weights %v (were %v), epoch %d", weights(), weights0, dep.Owner().Epoch())
	}
	if dep.provs[core.DIJ] != provs0[0] || dep.provs[core.LDM] != provs0[1] || dep.certStale {
		t.Error("failed batch replaced a provider or staled the certificate")
	}

	// With the fault removed the owner's network is the providers' again
	// (Save checks), and the very same batch goes through.
	dep.provs[core.HYP] = healthy
	if _, err := dep.Save(&bytes.Buffer{}); err != nil {
		t.Fatalf("save after a rolled-back batch: %v", err)
	}
	sum, err := dep.ApplyUpdates(ups)
	if err != nil || sum.Epoch != 1 || sum.LeavesPatched == 0 {
		t.Fatalf("valid batch after a rolled-back one: %+v, %v", sum, err)
	}
	for _, m := range methods {
		for _, q := range qs {
			a, err := dep.Engine().Query(Query{Method: m, VS: q.S, VT: q.T})
			if err != nil {
				t.Fatal(err)
			}
			verifyAnswer(t, dep.Owner().Verifier(), a)
			if want, _ := sp.DijkstraTo(dep.Owner().Graph(), q.S, q.T); a.Dist != want {
				t.Errorf("%s (%d→%d): dist %v after the batch, oracle %v", m, q.S, q.T, a.Dist, want)
			}
		}
	}
}

// TestApplyUpdatesEngineMissingMethod drives Deployment.ApplyUpdates
// against an engine that lacks a slot for one of the deployment's
// providers: the batch must fail loudly with ErrUnknownMethod instead of
// silently serving stale proofs for the missing method — and, like any
// failed batch, before anything is mutated.
func TestApplyUpdatesEngineMissingMethod(t *testing.T) {
	dep, _, g := snapWorld(t, 31)
	// Rebuild the engine with only LDM registered, simulating a wiring bug
	// (or a replica-profile engine) behind an owner that patches DIJ+LDM+HYP.
	broken := NewEngine(Options{})
	broken.Register(dep.provs[core.LDM])
	dep.engine = broken

	ups := sampleUpdates(g, 1.5)
	if len(ups) == 0 {
		t.Fatal("no sample updates")
	}
	_, err := dep.ApplyUpdates(ups)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("ApplyUpdates = %v, want ErrUnknownMethod", err)
	}
	if w, _ := dep.Owner().Graph().EdgeWeight(ups[0].U, ups[0].V); w == ups[0].W || dep.Owner().Epoch() != 0 {
		t.Fatalf("refused batch still moved the owner: weight %v, epoch %d", w, dep.Owner().Epoch())
	}
}

// TestLoadDeploymentMethodSubset pins behavior when a snapshot's method
// set differs from what a caller might have registered elsewhere: the
// loaded deployment serves and patches exactly the snapshot's methods —
// absent methods answer ErrUnknownMethod, and ApplyUpdates patches only
// the loaded set.
func TestLoadDeploymentMethodSubset(t *testing.T) {
	dep, signer, g := snapWorld(t, 33) // serves DIJ+LDM+HYP, not FULL
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), signer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Method{core.DIJ, core.LDM, core.HYP}
	if got := loaded.Methods(); !slices.Equal(got, want) {
		t.Fatalf("loaded methods %v, want %v", got, want)
	}
	if got := loaded.Engine().Methods(); !slices.Equal(got, want) {
		t.Fatalf("loaded engine methods %v, want %v", got, want)
	}
	// The absent method is absent, not wedged: queries answer
	// ErrUnknownMethod and updates patch only the loaded set.
	if _, err := loaded.Engine().Query(Query{Method: core.FULL, VS: 0, VT: 1}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("FULL query on subset deployment = %v, want ErrUnknownMethod", err)
	}
	sum, err := loaded.ApplyUpdates(sampleUpdates(g, 1.25))
	if err != nil {
		t.Fatal(err)
	}
	if sum.LeavesPatched == 0 {
		t.Fatal("update patched nothing on the loaded subset deployment")
	}
	if got := loaded.Methods(); !slices.Equal(got, want) {
		t.Fatalf("methods after update %v, want %v", got, want)
	}
}

// TestLoadedDeploymentSavesAfterNoopBatch is the regression pin for the
// restored-owner staleness interaction: an all-no-op ApplyUpdates batch
// on a LoadDeployment'd deployment freezes the owner's view without any
// provider being patched (nothing changed), and a subsequent Save must
// still succeed — the loaded providers search the very view the owner
// adopted at restore, so they are not stale.
func TestLoadedDeploymentSavesAfterNoopBatch(t *testing.T) {
	dep, signer, g := snapWorld(t, 37)
	var buf bytes.Buffer
	if _, err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeployment(bytes.NewReader(buf.Bytes()), int64(buf.Len()), signer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A no-op batch: re-apply an edge's current weight.
	u := graph.NodeID(2)
	e := g.Neighbors(u)[0]
	sum, err := loaded.ApplyUpdates([]core.EdgeUpdate{{U: u, V: e.To, W: e.W}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.LeavesPatched != 0 {
		t.Fatalf("no-op batch patched %d leaves", sum.LeavesPatched)
	}
	var buf2 bytes.Buffer
	if _, err := loaded.Save(&buf2); err != nil {
		t.Fatalf("save after no-op batch on restored owner: %v", err)
	}
	// And a loaded provider may be mixed with a freshly outsourced method
	// on the restored owner — both share the adopted view's generation.
	full, err := loaded.Owner().Outsource(core.FULL)
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	provs := []core.Provider{full}
	for _, m := range loaded.Methods() {
		provs = append(provs, loaded.provs[m])
	}
	if _, err := loaded.Owner().WriteSnapshot(&buf3, provs...); err != nil {
		t.Fatalf("mixed loaded+fresh providers rejected: %v", err)
	}
}
