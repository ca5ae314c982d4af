package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/authhints/spv/internal/cert"
	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/snapshot"
	"github.com/authhints/spv/internal/workload"
)

// Steady-state allocation budgets for the cold query path. The measured
// numbers (PR 2) are ~15 allocs/op for DIJ and ~17 for LDM on the bench
// world; the budgets leave headroom for pool churn (sync.Pool drops entries
// across GCs) while still catching any regression back toward the ~110
// allocs/op the pre-workspace implementation paid.
const (
	dijAllocBudget = 60
	ldmAllocBudget = 60
)

// fullColdAllocBudget pins the cold FULL proof build (PR 7): with the
// forest row scratch pooled the measured cost is ~32 allocs/op, down from
// the ~4,500/op the per-query row regeneration used to pay. The budget
// leaves pool-churn headroom while staying an order of magnitude under the
// old cost.
const fullColdAllocBudget = 400

// TestQueryAllocBudget pins the provider hot path to a small constant
// allocation budget: after warm-up, a DIJ/LDM query must not allocate
// per-|V| scratch (workspaces, heaps, include sets are pooled; only the
// proof itself is built fresh).
func TestQueryAllocBudget(t *testing.T) {
	w := world(t)
	q := w.queries[0]

	warm := func(query func() error) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := query(); err != nil {
				t.Fatal(err)
			}
		}
	}

	dij := func() error { _, err := w.dij.QueryProof(q.S, q.T); return err }
	warm(dij)
	if got := testing.AllocsPerRun(20, func() { dij() }); got > dijAllocBudget {
		t.Errorf("DIJ query allocates %.0f/op, budget %d", got, dijAllocBudget)
	}

	ldm := func() error { _, err := w.ldm.QueryProof(q.S, q.T); return err }
	warm(ldm)
	if got := testing.AllocsPerRun(20, func() { ldm() }); got > ldmAllocBudget {
		t.Errorf("LDM query allocates %.0f/op, budget %d", got, ldmAllocBudget)
	}
}

// HYP's budgets are per QueryProof on a 1,500-node world under the default
// configuration (100 cells, 294 borders, 43,365 distance-tree leaves).
// Measured: 15 allocs and 7.2 KB a proof, nearly all of it the proof itself.
// The bytes budget is the one that matters: a Merkle coverage scratch sized
// to the distance tree and allocated per query cost 376 KB and 83 allocs a
// proof here, and on the benchmark world 1.7 MB against 106 allocs — a size
// that grows with the tree behind a count that barely moves.
const (
	hypAllocBudget = 48
	hypBytesBudget = 64 << 10
)

// TestHYPQueryAllocBudget holds a HYP proof to what it touches: the two
// cells' tuples and the few dozen hyper-edge leaves between them, not the
// distance tree.
func TestHYPQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats scratch pooling")
	}
	g, err := netgen.Synthesize(1500, 1650, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hyp := outsource[*HYPProvider](t, owner, HYP)
	qs, err := workload.Generate(g, 8, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for _, q := range qs {
			if _, err := hyp.QueryProof(q.S, q.T); err != nil {
				t.Fatalf("HYP %d→%d: %v", q.S, q.T, err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		sweep()
	}
	allocs := testing.AllocsPerRun(10, sweep) / float64(len(qs))
	size := totalAlloc(sweep) / uint64(len(qs))
	t.Logf("%d borders, %d distance-tree leaves: %.1f allocs/op, %d B/op", hyp.NumBorders(), hyp.distMBT.Len(), allocs, size)
	if allocs > hypAllocBudget {
		t.Errorf("HYP query allocates %.1f/op, budget %d", allocs, hypAllocBudget)
	}
	if size > hypBytesBudget {
		t.Errorf("HYP query allocates %d B/op, budget %d", size, hypBytesBudget)
	}
}

// TestSnapTreeDecodeAllocBudget: loading a Merkle tree from a section costs
// its levels — one copy each — not its digests, and never more bytes than
// the payload holds, whatever widths the payload claims.
func TestSnapTreeDecodeAllocBudget(t *testing.T) {
	leaves := make([]byte, 20000*digest.SHA1.Size())
	for i := range leaves {
		leaves[i] = byte(i * 7)
	}
	tree, err := mht.Build(digest.SHA1, 2, leaves)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := newSnapStream(&buf)
	s.tree(tree)
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	if uint64(len(payload)) != snapTreeSize(tree) {
		t.Fatalf("streamed %d bytes, snapTreeSize says %d", len(payload), snapTreeSize(tree))
	}
	f := sectionFile(t, payload)
	decode := func() {
		r, err := f.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		c := newSnapCursor(r)
		got := c.tree()
		if err := c.finish("tree"); err != nil || !bytes.Equal(got.Root(), tree.Root()) {
			t.Fatalf("decode: %v", err)
		}
	}
	// The tree's own budget is its levels, the level list, the tree and two
	// to spare; the stream under it adds exactly three allocations: the
	// section reader, the cursor's bufio.Reader and that reader's window.
	const streamAllocs = 3
	if allocs := testing.AllocsPerRun(10, decode); allocs > float64(tree.Height()+4+streamAllocs) {
		t.Errorf("decoding %d levels allocates %.0f times, want ≤ levels+4 and %d for the stream", tree.Height(), allocs, streamAllocs)
	}
	// (Each level read once into its slab, rounded up to the allocator's size
	// classes; the window is the one staging buffer, never more than the
	// section it stages.)
	window := uint64(min(len(payload), snapWindow))
	if size := totalAlloc(decode); size > uint64(len(payload))*21/20+4096+window {
		t.Errorf("decoding a %d-byte tree allocates %d bytes (window %d)", len(payload), size, window)
	}
	// A width that claims more digests than bytes remain fails before
	// anything is allocated for it.
	lying := bytes.Clone(payload[:64])
	binary.BigEndian.PutUint32(lying[7:], 1<<30) // level 0's width
	f = sectionFile(t, lying)
	if size := totalAlloc(func() {
		r, err := f.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		c := newSnapCursor(r)
		if c.tree() != nil || c.err == nil {
			t.Error("a width beyond the payload was accepted")
		}
	}); size > 4096 {
		t.Errorf("a lying width allocated %d bytes ahead of the payload", size)
	}
}

// sectionFile frames payload as the only section (kind 1) of a snapshot
// container, for driving a snapCursor without a deployment around it.
func sectionFile(t testing.TB, payload []byte) *snapshot.File {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, 0)
	if err == nil {
		if err = w.Section(1, payload); err == nil {
			err = w.Close()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFULLColdQueryAllocBudget pins the cold FULL proof build — the path
// every cache miss pays. There is no warm variant: FULL proofs are built
// from scratch per query, so this *is* the steady state once the scratch
// pools are populated.
func TestFULLColdQueryAllocBudget(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	for i := 0; i < 3; i++ {
		if _, err := w.full.QueryProof(q.S, q.T); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { w.full.QueryProof(q.S, q.T) }); got > fullColdAllocBudget {
		t.Errorf("cold FULL query allocates %.0f/op, budget %d", got, fullColdAllocBudget)
	}
}

// batchItemsCycled builds an n-proof single-root response by cycling the
// workload pool — the shape of real /batch traffic, where queries repeat —
// and round-trips it through the shared batch wire, so the items are
// exactly what a client decodes (repeated answers share one proof pointer).
func batchItemsCycled(t *testing.T, w *testWorld, m Method, n int) []BatchItem {
	t.Helper()
	p := testProvider(t, w, m)
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		q := w.queries[i%len(w.queries)]
		pr, err := p.QueryProof(q.S, q.T)
		if err != nil {
			t.Fatalf("%s query (%d→%d): %v", m, q.S, q.T, err)
		}
		items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: pr})
	}
	wire, err := AppendProofBatch(nil, m, items)
	if err != nil {
		t.Fatalf("%s batch encode: %v", m, err)
	}
	pb, _, err := DecodeProofBatch(wire)
	if err != nil {
		t.Fatalf("%s batch decode: %v", m, err)
	}
	return pb.Items()
}

// Steady-state allocation budgets for client verification. The signature
// check is a hit in the verifier's memo after the first proof of a root
// (crypto/rsa's 9 allocations a check are paid once), so what is left after
// the tuple table is, for the two methods with a second authenticated
// structure, its reconstruction — measured 0 (DIJ, LDM), 8 (HYP), 6 (FULL,
// 9 before its forest leaf was hashed into a local buffer) per proof,
// against 230 to 580 with a map per fact. The budgets leave a pooled
// scratch being dropped by a GC mid-measurement some room.
var verifyAllocBudget = map[Method]float64{DIJ: 8, LDM: 8, HYP: 16, FULL: 12}

const (
	// One VerifyBatch over a 64-item response (12 distinct proofs under one
	// signed root). Measured 23 (DIJ, LDM) to 142 (FULL); the shared-digest
	// batch path this replaces measured 1,455 to 3,075 on the same items.
	verifyBatch64AllocBudget = 200
)

// TestVerifyAllocBudget pins a single VerifyProof, after warm-up, to a
// small constant: nothing per record, per Merkle node or per search step.
func TestVerifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats scratch pooling")
	}
	w := world(t)
	v := w.owner.Verifier()
	q := w.queries[0]
	for _, m := range Methods() {
		pr, err := testProvider(t, w, m).QueryProof(q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		verify := func() {
			if err := VerifyProof(v, m, q.S, q.T, pr); err != nil {
				t.Fatalf("%s verify: %v", m, err)
			}
		}
		verify()
		if got := testing.AllocsPerRun(20, verify); got > verifyAllocBudget[m] {
			t.Errorf("%s verification allocates %.0f/op, budget %.0f", m, got, verifyAllocBudget[m])
		}
	}
}

// TestVerifyBatchAllocBudget pins one VerifyBatch over a 64-proof
// single-root response the same way.
func TestVerifyBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 64 proofs per method")
	}
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		items := batchItemsCycled(t, w, m, 64)
		verify := func() {
			for i, err := range VerifyBatch(v, m, items) {
				if err != nil {
					t.Fatalf("%s item %d: %v", m, i, err)
				}
			}
		}
		verify()
		if got := testing.AllocsPerRun(5, verify); got > verifyBatch64AllocBudget {
			t.Errorf("%s: batch of 64 allocates %.0f, budget %d", m, got, verifyBatch64AllocBudget)
		}
	}
}

// totalAlloc returns the bytes fn allocates (cumulative, so the collector
// running in between does not matter).
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCertPathAllocBudget gates the certificate path on a work counter
// instead of wall time: bytes allocated, against the size of the
// certificate, on a world whose certificate (152 rows over 1,500 nodes,
// 2.7 MB) outweighs everything else DIJ, LDM and HYP providers hold. The
// certificate is its wire, so issuing allocates that wire once (1.03× its
// size), saving adds nothing for it (+0 B), and decode plus audit allocate
// the index, per-worker scratch, the HYP hyper-edge list and the Merkle
// level folds (0.37×) — work that follows the stored structures, not the
// certificate. At the parent commit, which kept decoded rows and re-encoded
// them on every use, the same calls read 11.7×, +4.9× and 7.9×.
func TestCertPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats workspace and scratch pooling")
	}
	owner, provs, perWorker := certBudgetWorld(t)
	save := func(c *cert.Certificate) uint64 {
		return totalAlloc(func() {
			if _, err := owner.WriteSnapshotCert(io.Discard, c, provs...); err != nil {
				t.Fatal(err)
			}
		})
	}
	save(nil) // warm pools and lazily built state
	plain := save(nil)

	var (
		c   *cert.Certificate
		err error
	)
	if _, err := owner.Certify(provs...); err != nil { // warm the search workspaces
		t.Fatal(err)
	}
	issue := totalAlloc(func() { c, err = owner.Certify(provs...) })
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(c.Bytes()))
	if limit := size*5/4 + perWorker; issue > limit {
		t.Errorf("Certify allocated %d bytes for a %d-byte certificate, budget %d", issue, size, limit)
	}

	if certified := save(c); certified > plain+size/8 {
		t.Errorf("saving with a %d-byte certificate allocated %d bytes, %d without one", size, certified, plain)
	}

	var buf bytes.Buffer
	if _, err := owner.WriteSnapshotCert(&buf, c, provs...); err != nil {
		t.Fatal(err)
	}
	set, err := ReadProviderSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	wire := bytes.Clone(c.Bytes())
	var rep *cert.Report
	audit := totalAlloc(func() {
		var dc *cert.Certificate
		if dc, err = cert.DecodeCertificate(wire); err == nil {
			rep = cert.Audit(set, dc, set.Verifier)
		}
	})
	if err != nil || rep.Err() != nil {
		t.Fatalf("decode %v, audit %v", err, rep.Err())
	}
	if limit := size/2 + perWorker; audit > limit {
		t.Errorf("decode + audit of a %d-byte certificate allocated %d bytes, budget %d", size, audit, limit)
	}
}

// certBudgetWorld is TestCertPathAllocBudget's world: DIJ, LDM and HYP
// over 1,500 nodes, and the per-worker scratch allowance its budgets add.
func certBudgetWorld(t *testing.T) (*Owner, []Provider, uint64) {
	t.Helper()
	g, err := netgen.Synthesize(1500, 1650, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 8
	cfg.Cells = 16
	owner, err := NewOwner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var provs []Provider
	for _, m := range []Method{DIJ, LDM, HYP} {
		p, err := owner.Outsource(m)
		if err != nil {
			t.Fatal(err)
		}
		provs = append(provs, p)
	}
	return owner, provs, uint64(runtime.GOMAXPROCS(0) * g.NumNodes() * 64)
}

// TestCertFileAuditAllocBudget holds the audit of a certificate read from
// a file to the in-memory budget above: a lazily opened, warmed set audited
// through AuditCertificate streams the CERT section through the audit, so
// what it allocates is the audit's own working state plus a few row
// buffers per worker — never the section. Reading the certificate first
// (Certificate, then Audit) allocates the section on top, ≥ 1.37× its size.
func TestCertFileAuditAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats workspace and scratch pooling")
	}
	owner, provs, perWorker := certBudgetWorld(t)
	c, err := owner.Certify(provs...)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(c.Bytes()))
	path := filepath.Join(t.TempDir(), "world.spv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotCert(f, c, provs...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := OpenProviderSetLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	set.Warm()
	var rep *cert.Report
	audit := totalAlloc(func() { rep, err = set.AuditCertificate(set.Verifier) })
	if err != nil || rep == nil || rep.Err() != nil {
		t.Fatalf("streamed audit: err %v, report %v", err, rep)
	}
	if limit := size/2 + perWorker; audit > limit {
		t.Errorf("streamed audit of a %d-byte certificate allocated %d bytes, budget %d", size, audit, limit)
	}
	t.Logf("streamed audit of a %d-byte certificate allocated %d bytes (%.2f×)", size, audit, float64(audit)/float64(size))
}
