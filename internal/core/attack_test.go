package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/sp"
)

// This file is the attack matrix (DESIGN.md §6, invariant 7): for every
// method, every tampering a malicious or compromised provider could attempt
// must be rejected by the client. Each attack manipulates a real proof, so
// rejections exercise the actual verification logic rather than decode
// errors.

// subOptimalPath returns a real path from s to t that is strictly longer
// than the shortest one, by deleting an edge of the shortest path and
// re-routing. Returns nil if the graph offers no alternative.
func subOptimalPath(g *graph.Graph, s, t graph.NodeID) (graph.Path, float64) {
	best, shortest := sp.DijkstraTo(g, s, t)
	if shortest == nil {
		return nil, 0
	}
	for i := 1; i < len(shortest); i++ {
		u, v := shortest[i-1], shortest[i]
		cut := g.Clone()
		cut.RemoveEdge(u, v)
		d, p := sp.DijkstraTo(cut, s, t)
		if p != nil && d > best*(1+1e-6) {
			// Confirm it is a real path in the ORIGINAL graph.
			if err := p.Validate(g, s, t); err == nil {
				return p, d
			}
		}
	}
	return nil, 0
}

// attackQuery picks a workload query for which a sub-optimal alternative
// path exists.
func attackQuery(t *testing.T, w *testWorld) (graph.NodeID, graph.NodeID, graph.Path, float64) {
	t.Helper()
	for _, q := range w.queries {
		if p, d := subOptimalPath(w.g, q.S, q.T); p != nil {
			return q.S, q.T, p, d
		}
	}
	t.Fatal("no query with a sub-optimal alternative found")
	return 0, 0, nil, 0
}

func wantRejected(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: tampered proof ACCEPTED", name)
		return
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("%s: rejection not wrapped in ErrRejected: %v", name, err)
	}
}

// --- DIJ attacks ---

func TestDIJAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	v := w.owner.Verifier()

	// The provider maliciously reports the longer path, with an honest
	// subgraph proof sized for the longer distance (the strongest version
	// of this attack: everything else is consistent).
	_, settled := sp.DijkstraBounded(w.g, vs, altDist*providerSlack)
	mhtProof, err := w.dij.ads.Prove(settled)
	if err != nil {
		t.Fatal(err)
	}
	proof := &DIJProof{proofFrame{alt, altDist, w.dij.ads.Records(settled), mhtProof}, w.dij.rootSig}
	err = VerifyProof(v, DIJ, vs, vt, proof)
	wantRejected(t, "DIJ sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestDIJAttackTamperedTuple(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	// Inflate an edge weight inside a tuple (e.g. to justify a detour).
	tampered := append([]byte(nil), proof.Tuples[0].Bytes...)
	tampered[len(tampered)-1] ^= 0x01
	proof.Tuples[0].Bytes = tampered
	wantRejected(t, "DIJ tampered tuple", VerifyProof(w.owner.Verifier(), DIJ, q.S, q.T, proof))
}

func TestDIJAttackDroppedTuple(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	// Drop a tuple but keep its Merkle digest available: simulate by
	// removing the record and inserting its digest as a proof entry is not
	// even needed — removal alone must break either the root reconstruction
	// or the Dijkstra re-run.
	proof.Tuples = proof.Tuples[:len(proof.Tuples)-1]
	wantRejected(t, "DIJ dropped tuple", VerifyProof(w.owner.Verifier(), DIJ, q.S, q.T, proof))
}

func TestDIJAttackFabricatedEdge(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	// Claim a path using an edge that does not exist.
	proof.Path = graph.Path{q.S, q.T}
	wd, _ := sp.DijkstraTo(w.g, q.S, q.T)
	proof.Dist = wd
	wantRejected(t, "DIJ fabricated edge", VerifyProof(w.owner.Verifier(), DIJ, q.S, q.T, proof))
}

func TestDIJAttackWrongEndpoints(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	// Serve a (valid) proof for a different target.
	other := w.queries[1]
	wantRejected(t, "DIJ wrong endpoints", VerifyProof(w.owner.Verifier(), DIJ, other.S, other.T, proof))
}

func TestDIJAttackInflatedClaim(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	proof.Dist *= 1.01
	wantRejected(t, "DIJ inflated claim", VerifyProof(w.owner.Verifier(), DIJ, q.S, q.T, proof))
}

// --- FULL attacks ---

func TestFULLAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	honest := prove[*FULLProof](t, w.full, vs, vt)
	// Report the longer path; the authentic materialized distance gives the
	// lie away.
	mhtProof, err := w.full.ads.Prove(alt)
	if err != nil {
		t.Fatal(err)
	}
	proof := &FULLProof{
		proofFrame: proofFrame{alt, altDist, w.full.ads.Records(alt), mhtProof},
		DistVO:     honest.DistVO,
		NetSig:     honest.NetSig,
		DistSig:    honest.DistSig,
	}
	err = VerifyProof(w.owner.Verifier(), FULL, vs, vt, proof)
	wantRejected(t, "FULL sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestFULLAttackTamperedDistance(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*FULLProof](t, w.full, q.S, q.T)
	proof.DistVO.Entry.Value = proof.Dist * 1.5
	wantRejected(t, "FULL tampered distance", VerifyProof(w.owner.Verifier(), FULL, q.S, q.T, proof))
}

func TestFULLAttackForeignDistanceEntry(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	other := w.queries[1]
	proof := prove[*FULLProof](t, w.full, q.S, q.T)
	// Substitute another pair's (authentic!) distance entry.
	foreign, err := w.full.forest.Prove(int(other.S), int(other.T))
	if err != nil {
		t.Fatal(err)
	}
	proof.DistVO = foreign
	wantRejected(t, "FULL foreign entry", VerifyProof(w.owner.Verifier(), FULL, q.S, q.T, proof))
}

func TestFULLAttackRekeyedEntry(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*FULLProof](t, w.full, q.S, q.T)
	// Keep the digest material but re-label the entry's key.
	proof.DistVO.Entry.Key = mbt.MakeKey(uint32(q.S), uint32(q.S))
	wantRejected(t, "FULL re-keyed entry", VerifyProof(w.owner.Verifier(), FULL, q.S, q.T, proof))
}

// --- LDM attacks ---

func TestLDMAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	// Malicious provider: collects an honest-looking Lemma 2 subgraph for
	// the LONGER distance, so the proof is internally consistent.
	bound := altDist * providerSlack
	tree, settled := sp.DijkstraBounded(w.g, vs, bound)
	include := make(map[graph.NodeID]bool)
	for _, v := range settled {
		if tree.Dist[v]+w.ldm.hints.LB(v, vt) <= bound {
			include[v] = true
			for _, e := range w.g.Neighbors(v) {
				include[e.To] = true
			}
		}
	}
	nodes := make([]graph.NodeID, 0, len(include))
	for v := range include {
		nodes = append(nodes, v)
	}
	for _, v := range nodes {
		if ref := w.ldm.hints.Ref[v]; ref != v && !include[ref] {
			include[ref] = true
			nodes = append(nodes, ref)
		}
	}
	mhtProof, err := w.ldm.ads.Prove(nodes)
	if err != nil {
		t.Fatal(err)
	}
	proof := &LDMProof{
		proofFrame: proofFrame{alt, altDist, w.ldm.ads.Records(nodes), mhtProof},
		Params:     w.ldmParams(),
		RootSig:    w.ldm.rootSig,
	}
	err = VerifyProof(w.owner.Verifier(), LDM, vs, vt, proof)
	wantRejected(t, "LDM sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func (w *testWorld) ldmParams() landmark.Params {
	return landmark.Params{C: w.ldm.hints.C(), Bits: w.ldm.hints.Bits, Lambda: w.ldm.hints.Lambda}
}

func TestLDMAttackDroppedReference(t *testing.T) {
	w := world(t)
	// Find a query whose proof contains a compressed tuple, then drop the
	// referenced representative's tuple.
	for _, q := range w.queries {
		proof := prove[*LDMProof](t, w.ldm, q.S, q.T)
		refs := map[graph.NodeID]bool{}
		inProof := map[graph.NodeID]bool{}
		for _, rec := range proof.Tuples {
			tup, _, err := graph.DecodeTuple(rec.Bytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			inProof[tup.ID] = true
			if ref := w.ldm.hints.Ref[tup.ID]; ref != tup.ID {
				refs[ref] = true
			}
		}
		if len(refs) == 0 {
			continue
		}
		// Drop one representative's record.
		var filtered []tupleRecord
		dropped := false
		for _, rec := range proof.Tuples {
			tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
			if !dropped && refs[tup.ID] && w.ldm.hints.Ref[tup.ID] == tup.ID {
				dropped = true
				continue
			}
			filtered = append(filtered, rec)
		}
		if !dropped {
			continue
		}
		proof.Tuples = filtered
		wantRejected(t, "LDM dropped reference", VerifyProof(w.owner.Verifier(), LDM, q.S, q.T, proof))
		return
	}
	t.Skip("no query produced compressed tuples; compression too weak at this scale")
}

func TestLDMAttackTamperedPayload(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*LDMProof](t, w.ldm, q.S, q.T)
	// Flip a bit inside a landmark vector (inflating a lower bound could
	// hide a shorter path).
	rec := proof.Tuples[len(proof.Tuples)/2]
	tampered := append([]byte(nil), rec.Bytes...)
	tampered[len(tampered)-2] ^= 0xff
	proof.Tuples[len(proof.Tuples)/2].Bytes = tampered
	wantRejected(t, "LDM tampered payload", VerifyProof(w.owner.Verifier(), LDM, q.S, q.T, proof))
}

func TestLDMAttackParameterForgery(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*LDMProof](t, w.ldm, q.S, q.T)
	// Claim a larger λ: every lower bound would scale up, potentially
	// pruning the re-run into accepting a longer path. The signature binds
	// λ, so this must die at the signature check.
	proof.Params.Lambda *= 2
	wantRejected(t, "LDM forged lambda", VerifyProof(w.owner.Verifier(), LDM, q.S, q.T, proof))
}

// --- HYP attacks ---

func TestHYPAttackSubOptimalPath(t *testing.T) {
	w := world(t)
	vs, vt, alt, altDist := attackQuery(t, w)
	honest := prove[*HYPProof](t, w.hyp, vs, vt)
	// Report the longer path with the honest coarse proof: the Theorem 2
	// re-computation exposes the true distance.
	include := map[graph.NodeID]bool{}
	for _, rec := range honest.Tuples {
		tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
		include[tup.ID] = true
	}
	nodes := make([]graph.NodeID, 0, len(include)+len(alt))
	for v := range include {
		nodes = append(nodes, v)
	}
	for _, v := range alt {
		if !include[v] {
			include[v] = true
			nodes = append(nodes, v)
		}
	}
	mhtProof, err := w.hyp.ads.Prove(nodes)
	if err != nil {
		t.Fatal(err)
	}
	proof := &HYPProof{
		proofFrame: proofFrame{alt, altDist, w.hyp.ads.Records(nodes), mhtProof},
		Hyper:      honest.Hyper,
		NetSig:     honest.NetSig,
		DistSig:    honest.DistSig,
	}
	err = VerifyProof(w.owner.Verifier(), HYP, vs, vt, proof)
	wantRejected(t, "HYP sub-optimal", err)
	if !errors.Is(err, ErrNotShortest) {
		t.Errorf("expected ErrNotShortest, got %v", err)
	}
}

func TestHYPAttackTamperedHyperEdge(t *testing.T) {
	w := world(t)
	for _, q := range w.queries {
		proof := prove[*HYPProof](t, w.hyp, q.S, q.T)
		if proof.Hyper == nil || len(proof.Hyper.Entries) == 0 {
			continue
		}
		proof.Hyper.Entries[0].Value *= 2
		wantRejected(t, "HYP tampered hyper-edge", VerifyProof(w.owner.Verifier(), HYP, q.S, q.T, proof))
		return
	}
	t.Fatal("no query used hyper-edges")
}

func TestHYPAttackDroppedHyperEdges(t *testing.T) {
	w := world(t)
	for _, q := range w.queries {
		proof := prove[*HYPProof](t, w.hyp, q.S, q.T)
		if proof.Hyper == nil || len(proof.Hyper.Entries) < 2 {
			continue
		}
		// Drop the hyper-edge block entirely: inflating the coarse minimum
		// could legitimize a longer path.
		proof.Hyper = nil
		wantRejected(t, "HYP dropped hyper-edges", VerifyProof(w.owner.Verifier(), HYP, q.S, q.T, proof))
		return
	}
	t.Fatal("no query used hyper-edges")
}

func TestHYPAttackPrunedCell(t *testing.T) {
	w := world(t)
	// Drop a non-border cell node from the coarse proof: the client's
	// intra-cell Dijkstra must notice the missing neighbor of a non-border
	// node.
	for _, q := range w.queries {
		proof := prove[*HYPProof](t, w.hyp, q.S, q.T)
		cs := w.hyp.hyper.CellOf[q.S]
		var filtered []tupleRecord
		dropped := false
		for _, rec := range proof.Tuples {
			tup, _, _ := graph.DecodeTuple(rec.Bytes, 0)
			if !dropped && tup.ID != q.S && tup.ID != q.T &&
				w.hyp.hyper.CellOf[tup.ID] == cs && !w.hyp.hyper.IsBorder[tup.ID] &&
				!onPath(proof.Path, tup.ID) {
				dropped = true
				continue
			}
			filtered = append(filtered, rec)
		}
		if !dropped {
			continue
		}
		proof.Tuples = filtered
		wantRejected(t, "HYP pruned cell", VerifyProof(w.owner.Verifier(), HYP, q.S, q.T, proof))
		return
	}
	t.Skip("no query had a droppable inner cell node")
}

func onPath(p graph.Path, v graph.NodeID) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// --- cross-cutting ---

func TestAllMethodsRejectReplayedSignatureAcrossMethods(t *testing.T) {
	// A DIJ root signature must not authenticate an LDM tree and vice
	// versa: the signing context binds the method.
	w := world(t)
	q := w.queries[0]
	dp := prove[*DIJProof](t, w.dij, q.S, q.T)
	lp := prove[*LDMProof](t, w.ldm, q.S, q.T)
	dp.RootSig, lp.RootSig = lp.RootSig, dp.RootSig
	wantRejected(t, "DIJ with LDM sig", VerifyProof(w.owner.Verifier(), DIJ, q.S, q.T, dp))
	wantRejected(t, "LDM with DIJ sig", VerifyProof(w.owner.Verifier(), LDM, q.S, q.T, lp))
}

// --- unauthenticated bytes ---

// bothVerdicts verifies one proof through both client entry points.
func bothVerdicts(t *testing.T, m Method, vs, vt graph.NodeID, pr Proof) map[string]error {
	t.Helper()
	v := world(t).owner.Verifier()
	return map[string]error{
		"VerifyProof": VerifyProof(v, m, vs, vt, pr),
		"VerifyBatch": VerifyBatch(v, m, []BatchItem{{VS: vs, VT: vt, Proof: pr}})[0],
	}
}

// wantMalformed demands that both entry points reject a tampered proof as
// malformed.
func wantMalformed(t *testing.T, name string, m Method, vs, vt graph.NodeID, pr Proof) {
	t.Helper()
	for entry, err := range bothVerdicts(t, m, vs, vt, pr) {
		wantRejected(t, name+" via "+entry, err)
		if !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s via %s: got %v, want ErrMalformedProof", name, entry, err)
		}
	}
}

// TestLDMAttackDuplicateRecordForgedPayload: the provider appends a second
// record for a node already in the proof — same base tuple, forged landmark
// payload. A verifier that skipped the repeat after parsing it (the first
// record having authenticated the node) would let the forged payload steer
// the A* lower bounds without ever being hashed.
func TestLDMAttackDuplicateRecordForgedPayload(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*LDMProof](t, w.ldm, q.S, q.T)
	for i, r := range proof.Tuples {
		tup, n, err := graph.DecodeTuple(r.Bytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if payload, _, _ := landmark.DecodePayload(r.Bytes[n:], proof.Params.C, proof.Params.Bits); !payload.HasVec {
			continue
		}
		// Zero the node's landmark vector: every bound through it collapses.
		forged := append([]byte(nil), r.Bytes[:n+1]...)
		forged = append(forged, make([]byte, len(r.Bytes)-n-1)...)
		bad := *proof
		bad.Tuples = append(append([]tupleRecord(nil), proof.Tuples...), tupleRecord{Pos: r.Pos, Bytes: forged})
		wantMalformed(t, fmt.Sprintf("LDM forged payload repeat of node %d (record %d)", tup.ID, i), LDM, q.S, q.T, &bad)
		return
	}
	t.Fatal("no vector-carrying record to forge")
}

// TestHYPAttackDuplicateRecordForgedBorderFlag: the same attack on HYP's
// annotation — a repeat record flipping a node's border flag, which decides
// whether the cell search may skip the node's absent neighbors.
func TestHYPAttackDuplicateRecordForgedBorderFlag(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*HYPProof](t, w.hyp, q.S, q.T)
	for _, i := range []int{0, len(proof.Tuples) - 1} {
		r := proof.Tuples[i]
		forged := append([]byte(nil), r.Bytes...)
		forged[len(forged)-1] ^= 1
		bad := *proof
		bad.Tuples = append(append([]tupleRecord(nil), proof.Tuples...), tupleRecord{Pos: r.Pos, Bytes: forged})
		wantMalformed(t, fmt.Sprintf("HYP forged border flag repeat of record %d", i), HYP, q.S, q.T, &bad)
	}
}

// TestAttackRepeatedLeafPosition: two different nodes claiming one leaf
// position cannot both be what the owner put there.
func TestAttackRepeatedLeafPosition(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	proof := prove[*DIJProof](t, w.dij, q.S, q.T)
	proof.Tuples[1].Pos = proof.Tuples[0].Pos
	wantMalformed(t, "DIJ repeated leaf position", DIJ, q.S, q.T, proof)
}

// TestAttackMaskingEntry: the provider forges a tuple and covers it with
// the true digest of one of its ancestors — at the limit the signed root
// itself, handed back as a proof entry. Reconstruction that let an entry
// stand in for a subtree whose leaves the client holds would reach the
// signed root without the forged tuple ever being hashed into it, for every
// method alike.
func TestAttackMaskingEntry(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	for _, m := range Methods() {
		p := testProvider(t, w, m)
		tree := p.adsRef().tree
		for l := 1; l < tree.Height(); l++ {
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			fr, _ := partsOf(pr)
			rec := &fr.Tuples[0]
			forged := append([]byte(nil), rec.Bytes...)
			forged[8] ^= 0x01 // an x-coordinate bit: the tuple still parses
			rec.Bytes = forged
			// Position of the forged leaf's ancestor at level l: exactly one
			// level-l digest differs between the true tree and a tree with
			// that leaf's digest replaced.
			dirty, err := tree.UpdateLeaves(map[int][]byte{int(rec.Pos): fr.MHT.Alg.Sum(forged)})
			if err != nil {
				t.Fatal(err)
			}
			idx := 0
			for bytes.Equal(treeDigest(dirty, l, idx), treeDigest(tree, l, idx)) {
				idx++
			}
			fr.MHT.Entries = append(fr.MHT.Entries, mht.Entry{Level: uint8(l), Index: uint32(idx), Digest: treeDigest(tree, l, idx)})
			for entry, err := range bothVerdicts(t, m, q.S, q.T, pr) {
				wantRejected(t, fmt.Sprintf("%s forged tuple masked at level %d via %s", m, l, entry), err)
			}
		}
	}
}
