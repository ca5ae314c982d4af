package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// TestLargeSnapshotColdStart is the CI large-snapshot lane: build a
// ≥10⁵-node grid world, snapshot DIJ+LDM, then compare the two replica
// restart paths — full eager load vs lazy open + first client-verified
// proof — and the resident heap each leaves behind after DIJ-only
// traffic. The lane runs under GOMEMLIMIT (set by `make large-snap`) so
// a hydration path that silently regressed to loading everything would
// show up as GC thrash and blown latency, not just a bigger number.
//
// Gated behind SPV_LARGE_SNAPSHOT=1: the world build alone costs tens of
// seconds, which is too heavy for the per-push short lane.
func TestLargeSnapshotColdStart(t *testing.T) {
	if os.Getenv("SPV_LARGE_SNAPSHOT") == "" {
		t.Skip("set SPV_LARGE_SNAPSHOT=1 to run the large-world cold-start lane")
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
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "large.spv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	size, err := owner.WriteSnapshot(f, outsource[Provider](t, owner, DIJ), outsource[Provider](t, owner, LDM))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("world: %d nodes, %d edges; snapshot: %d bytes", g.NumNodes(), g.NumEdges(), size)
	// The CI job greps this marker into the uploaded size artifact.
	fmt.Printf("LARGE-SNAPSHOT nodes=%d edges=%d bytes=%d\n", g.NumNodes(), g.NumEdges(), size)

	qs, err := workload.Generate(g, 8, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]

	// Restart path A: full eager load (every section read, every method
	// decoded) through to a verified first proof.
	start := time.Now()
	eset, err := OpenProviderSet(path)
	if err != nil {
		t.Fatal(err)
	}
	eagerLoad := time.Since(start)
	pr := prove[Proof](t, eset.Provider(DIJ), q.S, q.T)
	if err := VerifyProof(eset.Verifier, DIJ, q.S, q.T, pr); err != nil {
		t.Fatal(err)
	}
	eagerWant := pr.AppendBinary(nil)

	// Restart path B: lazy open through to a verified first proof, over a
	// reader that counts what is asked of the file.
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	cr := &countingReaderAt{ra: fh}
	start = time.Now()
	lset := openLazy(t, cr, size)
	lazyOpen := time.Since(start)
	var hydrated []string
	lset.OnHydrate = func(m Method, n int64, _ time.Duration, trigger string, err error) {
		hydrated = append(hydrated, fmt.Sprintf("%s/%s/%v", m, trigger, err))
	}
	pr = prove[Proof](t, lset.Provider(DIJ), q.S, q.T)
	if err := VerifyProof(lset.Verifier, DIJ, q.S, q.T, pr); err != nil {
		t.Fatal(err)
	}
	firstProof := time.Since(start)
	if got := pr.AppendBinary(nil); string(got) != string(eagerWant) {
		t.Fatal("lazy first proof is not byte-identical to the eager one")
	}
	var bulk snapshot.SectionInfo // the LDM section: distance rows and tree
	for _, e := range lset.file.Sections() {
		if e.Length > bulk.Length {
			bulk = e
		}
	}
	lo, hi := bulk.Offset, bulk.Offset+12+int64(bulk.Length)+4
	total, inBulk := cr.bytesReadIn(0, size), cr.bytesReadIn(lo, hi)
	t.Logf("eager load: %v; lazy open: %v; lazy open + first verified proof: %v",
		eagerLoad, lazyOpen, firstProof)
	fmt.Printf("LARGE-SNAPSHOT eager_load=%v lazy_open=%v first_proof=%v\n",
		eagerLoad, lazyOpen, firstProof)
	fmt.Printf("LARGE-SNAPSHOT first_proof_read=%d bulk_section=%d\n", total, bulk.Length)

	// The cold-start bound: the first verified proof costs the core sections
	// plus the one method section it needs, not the file. Stated in bytes
	// asked of the file — a ratio to the eager load's time moves with the
	// machine and with every speed-up of the eager path: not one byte of the
	// bulk section is read, everything read is read once, and exactly one
	// section hydrated — DIJ, for the query.
	if int64(bulk.Length) < size/2 {
		t.Fatalf("the largest section (kind %d, %d bytes) is not the bulk of a %d-byte file", bulk.Kind, bulk.Length, size)
	}
	if inBulk != 0 || total > size-(hi-lo) {
		t.Errorf("lazy open + first DIJ proof read %d bytes (%d of them in the bulk section) of a %d-byte file whose bulk section is %d",
			total, inBulk, size, hi-lo)
	}
	if len(hydrated) != 1 || hydrated[0] != "DIJ/query/<nil>" {
		t.Errorf("hydrations after one DIJ query: %v", hydrated)
	}

	// Resident-memory bound: after DIJ-only traffic, the lazy set must
	// hold well under the eager footprint — the LDM rows (the file's
	// bulk) never left disk. Measured ≈49% at 10⁵ nodes; the 60% bound
	// leaves noise margin while still catching a hydration path that
	// regressed to loading everything.
	resident := func(open func(string) (*ProviderSet, error)) int64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			prove[Proof](t, set.Provider(DIJ), q.S, q.T)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(set)
		set.Close()
		return delta
	}
	lazyRes, eagerRes := resident(OpenProviderSetLazy), resident(OpenProviderSet)
	t.Logf("resident after DIJ-only traffic: lazy %d bytes, eager %d bytes (file %d)", lazyRes, eagerRes, size)
	fmt.Printf("LARGE-SNAPSHOT resident_lazy=%d resident_eager=%d\n", lazyRes, eagerRes)
	if lazyRes*5 > eagerRes*3 {
		t.Errorf("lazy resident %d is not under 60%% of the eager resident %d", lazyRes, eagerRes)
	}
}
