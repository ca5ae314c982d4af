package serve

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/core"
	"github.com/authhints/spv/internal/graph"
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

// TestApplyUpdatesEngineMissingMethod drives Deployment.ApplyUpdates
// against an engine that lacks a slot for one of the deployment's
// providers: the patch succeeds but the hot-swap must fail loudly with
// ErrUnknownMethod instead of silently serving stale proofs for the
// missing method.
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
