package core

import (
	"errors"
	"fmt"
	"testing"
)

// testProvider returns the generic provider face for method m.
func testProvider(t *testing.T, w *testWorld, m Method) Provider {
	t.Helper()
	switch m {
	case DIJ:
		return w.dij
	case FULL:
		return w.full
	case LDM:
		return w.ldm
	case HYP:
		return w.hyp
	}
	t.Fatalf("unknown method %s", m)
	return nil
}

// batchItems answers the first n workload queries through m, returning one
// item per query. Proofs are round-tripped through the wire so tests can
// mutate them without touching provider-owned memory.
func batchItems(t *testing.T, w *testWorld, m Method, n int) []BatchItem {
	t.Helper()
	p := testProvider(t, w, m)
	items := make([]BatchItem, 0, n)
	for _, q := range w.queries {
		if len(items) == n {
			break
		}
		pr, err := p.QueryProof(q.S, q.T)
		if err != nil {
			t.Fatalf("%s query (%d→%d): %v", m, q.S, q.T, err)
		}
		items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: reDecode(t, m, pr)})
	}
	return items
}

// reDecode round-trips a proof through its wire encoding, yielding an
// independent copy whose record bytes the caller owns.
func reDecode(t *testing.T, m Method, pr Proof) Proof {
	t.Helper()
	buf := pr.AppendBinary(nil)
	p2, n, err := DecodeProof(m, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("%s re-decode: n=%d/%d err=%v", m, n, len(buf), err)
	}
	return p2
}

func TestVerifyBatchAcceptsHonestProofs(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		items := batchItems(t, w, m, 8)
		// Realistic /batch traffic repeats queries: duplicate every item.
		items = append(items, items...)
		for i, err := range VerifyBatch(v, m, items) {
			if err != nil {
				t.Errorf("%s item %d: %v", m, i, err)
			}
		}
	}
}

func TestVerifyBatchUnknownMethod(t *testing.T) {
	errs := VerifyBatch(nil, Method("NOPE"), make([]BatchItem, 3))
	if len(errs) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrUnknownMethod) {
			t.Fatalf("got %v, want ErrUnknownMethod", err)
		}
	}
}

// tamperings mutates one decoded proof per entry; every mutation must be
// rejected by batch verification exactly when (and as) the per-proof
// verifier rejects it.
func tamperings(t *testing.T, m Method, fresh func() Proof) map[string]Proof {
	t.Helper()
	out := map[string]Proof{
		"nil proof": nil,
	}
	flipDist := fresh()
	bumpDist(t, flipDist)
	out["claimed distance bumped"] = flipDist

	flipTuple := fresh()
	flipTupleByte(t, flipTuple)
	out["tuple bytes flipped"] = flipTuple

	flipSig := fresh()
	flipSigByte(t, flipSig)
	out["signature flipped"] = flipSig

	truncated := fresh()
	dropTuples(t, truncated)
	out["tuples dropped"] = truncated
	_ = m
	return out
}

func bumpDist(t *testing.T, pr Proof) {
	t.Helper()
	switch p := pr.(type) {
	case *DIJProof:
		p.Dist++
	case *FULLProof:
		p.Dist++
	case *LDMProof:
		p.Dist++
	case *HYPProof:
		p.Dist++
	default:
		t.Fatalf("unknown proof %T", pr)
	}
}

func flipTupleByte(t *testing.T, pr Proof) {
	t.Helper()
	recs := proofTuples(t, pr)
	if len(recs) == 0 || len(recs[0].Bytes) == 0 {
		t.Fatal("no tuple bytes to flip")
	}
	b := append([]byte(nil), recs[0].Bytes...)
	b[len(b)-1] ^= 0x40
	recs[0].Bytes = b
}

func flipSigByte(t *testing.T, pr Proof) {
	t.Helper()
	switch p := pr.(type) {
	case *DIJProof:
		p.RootSig[0] ^= 1
	case *FULLProof:
		p.NetSig[0] ^= 1
	case *LDMProof:
		p.RootSig[0] ^= 1
	case *HYPProof:
		p.NetSig[0] ^= 1
	default:
		t.Fatalf("unknown proof %T", pr)
	}
}

func dropTuples(t *testing.T, pr Proof) {
	t.Helper()
	switch p := pr.(type) {
	case *DIJProof:
		p.Tuples = p.Tuples[:len(p.Tuples)/2]
	case *FULLProof:
		p.Tuples = p.Tuples[:len(p.Tuples)/2]
	case *LDMProof:
		p.Tuples = p.Tuples[:len(p.Tuples)/2]
	case *HYPProof:
		p.Tuples = p.Tuples[:len(p.Tuples)/2]
	default:
		t.Fatalf("unknown proof %T", pr)
	}
}

func proofTuples(t *testing.T, pr Proof) []tupleRecord {
	t.Helper()
	switch p := pr.(type) {
	case *DIJProof:
		return p.Tuples
	case *FULLProof:
		return p.Tuples
	case *LDMProof:
		return p.Tuples
	case *HYPProof:
		return p.Tuples
	default:
		t.Fatalf("unknown proof %T", pr)
		return nil
	}
}

// errClass fingerprints a verdict by the package sentinels it matches, so
// batch and single verdicts can be compared without depending on message
// text (some rejection messages name map-ordered elements).
func errClass(err error) string {
	if err == nil {
		return "accept"
	}
	s := "reject:"
	for _, sentinel := range []error{
		ErrRejected, ErrBadSignature, ErrIncompleteProof, ErrPathMismatch,
		ErrNotShortest, ErrMalformedProof, ErrBadQuery, ErrUnknownMethod,
	} {
		if errors.Is(err, sentinel) {
			s += " " + sentinel.Error()
		}
	}
	return s
}

// TestVerifyBatchTamperEquivalence is the accept/reject equivalence gate:
// every tampered item in a batch must be rejected with the per-proof
// verifier's error class, and the honest items around it must still be
// accepted.
func TestVerifyBatchTamperEquivalence(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		honest := batchItems(t, w, m, 4)
		q := w.queries[0]
		p := testProvider(t, w, m)
		orig, err := p.QueryProof(q.S, q.T)
		if err != nil {
			t.Fatalf("%s query: %v", m, err)
		}
		fresh := func() Proof { return reDecode(t, m, orig) }
		for name, bad := range tamperings(t, m, fresh) {
			items := append(append([]BatchItem(nil), honest...), BatchItem{VS: q.S, VT: q.T, Proof: bad})
			batchErrs := VerifyBatch(v, m, items)
			for i := range honest {
				if batchErrs[i] != nil {
					t.Errorf("%s %q: honest item %d rejected: %v", m, name, i, batchErrs[i])
				}
			}
			single := VerifyProof(v, m, q.S, q.T, bad)
			if single == nil {
				t.Errorf("%s %q: single verifier accepted the tampered proof", m, name)
			}
			got, want := errClass(batchErrs[len(items)-1]), errClass(single)
			if got != want {
				t.Errorf("%s %q: batch verdict %q, single verdict %q", m, name, got, want)
			}
		}
		// Swapped endpoints must be rejected too (proof is honest, query is
		// not the one it answers).
		items := append(append([]BatchItem(nil), honest...), BatchItem{VS: q.T, VT: q.S, Proof: fresh()})
		batchErrs := VerifyBatch(v, m, items)
		single := VerifyProof(v, m, q.T, q.S, fresh())
		if single == nil {
			t.Errorf("%s: single verifier accepted swapped endpoints", m)
		}
		if got, want := errClass(batchErrs[len(items)-1]), errClass(single); got != want {
			t.Errorf("%s swapped endpoints: batch verdict %q, single verdict %q", m, got, want)
		}
	}
}

// TestVerifyBatchMixedEpochsFallsBack pins the fallback rule: proofs from
// two different owners (different roots and keys) can never share a fast
// path, but each item still gets its exact per-proof verdict.
func TestVerifyBatchMixedEpochsFallsBack(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	other, err := NewOwner(w.g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	items := batchItems(t, w, DIJ, 3)
	q := w.queries[3]
	pr := prove[Proof](t, outsource[Provider](t, other, DIJ), q.S, q.T)
	items = append(items, BatchItem{VS: q.S, VT: q.T, Proof: reDecode(t, DIJ, pr)})
	errs := VerifyBatch(v, DIJ, items)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Errorf("item %d from the trusted owner rejected: %v", i, errs[i])
		}
	}
	if !errors.Is(errs[3], ErrBadSignature) {
		t.Errorf("foreign-owner item: got %v, want ErrBadSignature", errs[3])
	}
}

// TestVerifyBatchWireDuplicatesShareVerdict checks that items sharing one
// proof pointer (what the batch wire decoder produces for repeated
// answers) verify once and agree.
func TestVerifyBatchWireDuplicatesShareVerdict(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	q := w.queries[1]
	pr := prove[*DIJProof](t, w.dij, q.S, q.T)
	shared := reDecode(t, DIJ, pr)
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{VS: q.S, VT: q.T, Proof: shared}
	}
	for i, err := range VerifyBatch(v, DIJ, items) {
		if err != nil {
			t.Fatalf("duplicate item %d: %v", i, err)
		}
	}
}

func TestErrClassCoversSentinels(t *testing.T) {
	if errClass(nil) != "accept" {
		t.Fatal("nil must classify as accept")
	}
	if errClass(fmt.Errorf("%w: x", ErrBadSignature)) == errClass(fmt.Errorf("%w: x", ErrNotShortest)) {
		t.Fatal("distinct sentinels must classify differently")
	}
}
