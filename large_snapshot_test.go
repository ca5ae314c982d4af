package spv_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	spv "github.com/authhints/spv"
	"github.com/authhints/spv/internal/netgen"
)

// TestLargeSnapshotAuditHydration pins that a certificate audit on a
// lazily opened snapshot hydrates only the sections the audit actually
// touches. The world snapshots DIJ+LDM but certifies DIJ alone; the
// audit must pass (LDM is merely uncovered, not failed) while the LDM
// distance rows — the file's bulk — never leave disk. A regression that
// eagerly hydrated every provider before auditing shows up as the lazy
// resident climbing to the eager footprint.
//
// Gated with the cold-start lane (internal/core's
// TestLargeSnapshotColdStart): same world cost, same CI job.
func TestLargeSnapshotAuditHydration(t *testing.T) {
	if os.Getenv("SPV_LARGE_SNAPSHOT") == "" {
		t.Skip("set SPV_LARGE_SNAPSHOT=1 to run the large-world audit-hydration lane")
	}
	nodes := 100_000
	if s := os.Getenv("SPV_LARGE_NODES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("bad SPV_LARGE_NODES %q", s)
		}
		nodes = n
	}
	g, err := netgen.Grid(nodes, 11)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := spv.NewOwner(g, spv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dij, err := owner.Outsource(spv.DIJ)
	if err != nil {
		t.Fatal(err)
	}
	ldm, err := owner.Outsource(spv.LDM)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spv.Certify(owner, dij) // DIJ only: LDM stays uncovered
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "audit.spv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = owner.WriteSnapshotCert(f, c, dij, ldm)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	residentAudit := func(open func() (*spv.ProviderSet, error)) int64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := open()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := set.AuditCertificate(set.Verifier)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			t.Fatal("snapshot lost its certificate")
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if len(rep.Uncovered) != 1 || rep.Uncovered[0] != string(spv.LDM) {
			t.Fatalf("uncovered = %v, want [LDM]", rep.Uncovered)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(set)
		set.Close()
		return delta
	}
	lazyRes := residentAudit(func() (*spv.ProviderSet, error) { return spv.LoadProviderSetLazy(path) })
	eagerRes := residentAudit(func() (*spv.ProviderSet, error) { return spv.LoadProviderSet(path) })
	t.Logf("resident after DIJ-only audit: lazy %d bytes, eager %d bytes", lazyRes, eagerRes)
	fmt.Printf("LARGE-SNAPSHOT audit_resident_lazy=%d audit_resident_eager=%d\n", lazyRes, eagerRes)
	if lazyRes*5 > eagerRes*3 {
		t.Errorf("audit on the lazy set kept %d bytes resident, not under 60%% of eager %d — it hydrated sections the audit never touches", lazyRes, eagerRes)
	}
}
