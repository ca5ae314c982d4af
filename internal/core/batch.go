package core

import (
	"fmt"
	"reflect"

	"github.com/authhints/spv/internal/graph"
)

// This file implements batch verification: VerifyBatch checks a set of
// proofs of one method together, exploiting what real /batch traffic
// repeats wholesale — whole answers (each distinct query-proof pair is
// verified once). The other thing proofs of one provider epoch share, the
// signed root, is sig.Verifier's memo: one public-key operation for the
// epoch, batch or not.
//
// Every distinct item goes through the method's own VerifyProof, on the
// same pooled scratch as a single verification, so batch verdicts are the
// per-proof verdicts by construction.

// BatchItem is one query-proof pair in a batch.
type BatchItem struct {
	VS, VT graph.NodeID
	Proof  Proof
}

// VerifyBatch client-verifies a batch of proofs of method m, returning one
// verdict per item (nil = authentic and optimal, exactly as VerifyProof
// would report).
func VerifyBatch(v SigVerifier, m Method, items []BatchItem) []error {
	errs := make([]error, len(items))
	impl, ok := LookupMethod(m)
	if !ok {
		err := fmt.Errorf("%w %q", ErrUnknownMethod, m)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	uniq, mapTo := dedupBatch(items)
	verdicts := make([]error, len(uniq))
	for k, i := range uniq {
		verdicts[k] = impl.VerifyProof(v, items[i].VS, items[i].VT, items[i].Proof)
	}
	for i := range items {
		errs[i] = verdicts[mapTo[i]]
	}
	return errs
}

// dedupBatch groups items that are literally the same query-proof pair
// (same endpoints, same proof value — decoded batch wires share one proof
// pointer per distinct body, so repeated answers dedup here). It returns
// the indices of first occurrences and each item's distinct slot.
func dedupBatch(items []BatchItem) (uniq, mapTo []int) {
	type key struct {
		vs, vt graph.NodeID
		pr     Proof
	}
	seen := make(map[key]int, len(items))
	mapTo = make([]int, len(items))
	for i, it := range items {
		if it.Proof != nil && !reflect.TypeOf(it.Proof).Comparable() {
			mapTo[i] = len(uniq)
			uniq = append(uniq, i)
			continue
		}
		k := key{it.VS, it.VT, it.Proof}
		if j, dup := seen[k]; dup {
			mapTo[i] = j
			continue
		}
		seen[k] = len(uniq)
		mapTo[i] = len(uniq)
		uniq = append(uniq, i)
	}
	return uniq, mapTo
}
