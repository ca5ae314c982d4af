package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
)

// TestVerifyMatchesReference is the differential gate on the fast client:
// over honest proofs and thousands of seeded mutants per method, VerifyProof
// (and VerifyBatch, which must be the same thing) accepts exactly when the
// reference verifier of ref_test.go accepts, and rejects with the same
// error class. Mutants come in three families: bit flips in the wire bytes;
// structural edits of a decoded proof (records dropped, reordered, repeated,
// re-positioned, entries swapped, dropped, contradicted or masking a leaf,
// path and distance edits, wrong endpoints, shape and parameter lies); and
// *authentic* proofs the provider's own trees certify but that are not the
// honest answer — a node subset, a superset, a longer path — which are the
// ones that get past authentication and make the two searches disagree if
// they can.
func TestVerifyMatchesReference(t *testing.T) {
	perMethod := 2000
	if testing.Short() {
		perMethod = 250
	}
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		rng := rand.New(rand.NewSource(int64(len(m)) + int64(m[0])<<8))
		p := testProvider(t, w, m)
		var wires [][]byte
		for _, q := range w.queries {
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				t.Fatal(err)
			}
			wires = append(wires, pr.AppendBinary(nil))
			if err := refVerify(v, q.S, q.T, pr); err != nil {
				t.Fatalf("%s: reference rejects the honest proof for (%d→%d): %v", m, q.S, q.T, err)
			}
		}
		classes := map[string]int{}
		for n := 0; n < perMethod; {
			qi := rng.Intn(len(wires))
			vs, vt := w.queries[qi].S, w.queries[qi].T
			wire := bytes.Clone(wires[qi])
			family := rng.Intn(10)
			if family < 2 {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					wire[rng.Intn(len(wire))] ^= 1 << rng.Intn(8)
				}
			}
			pr, _, err := DecodeProof(m, wire)
			if err != nil {
				continue // not a proof: nothing to verify
			}
			var desc string
			switch {
			case family < 2:
				desc = "wire bit flip"
			case family < 4:
				pr, desc = authenticVariant(t, rng, w, p, pr)
			default:
				for k := 1 + rng.Intn(2); k > 0; k-- {
					d := mutateProof(rng, w, p, pr, &vs, &vt)
					desc += d + "; "
				}
			}
			got := errClass(VerifyProof(v, m, vs, vt, pr))
			want := errClass(refVerify(v, vs, vt, pr))
			if got != want {
				t.Fatalf("%s mutant %d (%s) of (%d→%d): fast path %q, reference %q", m, n, desc, vs, vt, got, want)
			}
			if batch := errClass(VerifyBatch(v, m, []BatchItem{{VS: vs, VT: vt, Proof: pr}})[0]); batch != want {
				t.Fatalf("%s mutant %d (%s): batch verdict %q, reference %q", m, n, desc, batch, want)
			}
			classes[want]++
			n++
		}
		t.Logf("%s: %d mutants: %v", m, perMethod, classes)
		if classes["accept"] == 0 || len(classes) < 4 {
			t.Errorf("%s: mutants reach only verdicts %v: the mix no longer exercises the verifier", m, classes)
		}
	}
}

// partsOf opens a proof's shared frame and its network-root signature for
// in-place tampering.
func partsOf(pr Proof) (*proofFrame, *[]byte) {
	switch p := pr.(type) {
	case *DIJProof:
		return &p.proofFrame, &p.RootSig
	case *FULLProof:
		return &p.proofFrame, &p.NetSig
	case *LDMProof:
		return &p.proofFrame, &p.RootSig
	case *HYPProof:
		return &p.proofFrame, &p.NetSig
	}
	panic("unknown proof type")
}

func flipBit(rng *rand.Rand, b []byte) []byte {
	b = bytes.Clone(b)
	if len(b) > 0 {
		b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
	}
	return b
}

// mutateProof applies one random structural edit to a decoded proof (or to
// the query endpoints) and names it.
func mutateProof(rng *rand.Rand, w *testWorld, p Provider, pr Proof, vs, vt *graph.NodeID) string {
	fr, sig := partsOf(pr)
	recs, mp := fr.Tuples, fr.MHT
	ri, ei := -1, -1
	if len(recs) > 0 {
		ri = rng.Intn(len(recs))
	}
	if len(mp.Entries) > 0 {
		ei = rng.Intn(len(mp.Entries))
	}
	switch op := rng.Intn(24); {
	case op == 0 && ri >= 0:
		fr.Tuples = slices.Delete(recs, ri, ri+1)
		return "record dropped"
	case op == 1 && ri >= 0:
		rj := rng.Intn(len(recs))
		recs[ri], recs[rj] = recs[rj], recs[ri]
		return "records swapped"
	case op == 2 && ri >= 0:
		fr.Tuples = append(recs, recs[ri])
		return "record repeated"
	case op == 3 && ri >= 0:
		// Same node, same base tuple, forged tail: the annotation for LDM and
		// HYP, the last edge weight for DIJ and FULL.
		forged := bytes.Clone(recs[ri].Bytes)
		forged[len(forged)-1] ^= 1 << rng.Intn(8)
		fr.Tuples = append(recs, tupleRecord{Pos: recs[ri].Pos, Bytes: forged})
		return "record repeated with forged tail"
	case op == 4 && ri >= 0:
		recs[ri].Pos = recs[rng.Intn(len(recs))].Pos + uint32(rng.Intn(2))
		return "record re-positioned"
	case op == 5 && ri >= 0:
		recs[ri].Bytes = flipBit(rng, recs[ri].Bytes)
		return "record bit flipped"
	case op == 6 && ri >= 0:
		recs[ri].Bytes = recs[ri].Bytes[:rng.Intn(len(recs[ri].Bytes)+1)]
		return "record truncated"
	case op == 7 && ei >= 0:
		mp.Entries = slices.Delete(mp.Entries, ei, ei+1)
		return "entry dropped"
	case op == 8 && ei >= 0:
		ej := rng.Intn(len(mp.Entries))
		mp.Entries[ei], mp.Entries[ej] = mp.Entries[ej], mp.Entries[ei]
		return "entries swapped"
	case op == 9 && ei >= 0:
		e := mp.Entries[ei]
		e.Digest = flipBit(rng, e.Digest)
		mp.Entries = append(mp.Entries, e)
		return "entry contradicted"
	case op == 10 && ei >= 0:
		mp.Entries = append(mp.Entries, mp.Entries[ei])
		return "entry repeated"
	case op == 11:
		// The true digest of a random position: redundant where the fold
		// computes it too, incomplete-making where it shadows a leaf.
		tree := p.adsRef().tree
		l := rng.Intn(tree.Height())
		i := rng.Intn(len(tree.Levels()[l]) / tree.Alg().Size())
		mp.Entries = append(mp.Entries, mht.Entry{Level: uint8(l), Index: uint32(i), Digest: treeDigest(tree, l, i)})
		return "true digest added as entry"
	case op == 12 && ei >= 0:
		mp.Entries[ei].Index += uint32(1 + rng.Intn(2))
		return "entry re-indexed"
	case op == 13:
		switch rng.Intn(3) {
		case 0:
			mp.NumLeaves += uint32(1 + rng.Intn(3))
		case 1:
			mp.Fanout = uint16(2 + rng.Intn(4))
		default:
			mp.Alg ^= 1
		}
		return "tree shape lie"
	case op == 14 && len(fr.Path) > 2:
		i := 1 + rng.Intn(len(fr.Path)-2)
		fr.Path = slices.Delete(fr.Path, i, i+1)
		return "path node dropped"
	case op == 15:
		fr.Path[rng.Intn(len(fr.Path))] = graph.NodeID(rng.Intn(w.g.NumNodes() + 5))
		return "path node replaced"
	case op == 16:
		slices.Reverse(fr.Path)
		return "path reversed"
	case op == 17:
		fr.Dist = []float64{fr.Dist + 1, fr.Dist * (1 + 1e-12), fr.Dist * (1 + 1e-6), math.NaN(), math.Inf(1), -fr.Dist, 0}[rng.Intn(7)]
		return "claimed distance edited"
	case op == 18:
		switch rng.Intn(3) {
		case 0:
			*vs, *vt = *vt, *vs
		case 1:
			*vs = graph.NodeID(rng.Intn(w.g.NumNodes()))
		default:
			*vt = *vs
		}
		return "wrong endpoints"
	case op == 19:
		*sig = flipBit(rng, *sig)
		return "signature bit flipped"
	default:
		return mutateMethodPart(rng, pr)
	}
}

// mutateMethodPart edits what only one method's proof carries.
func mutateMethodPart(rng *rand.Rand, pr Proof) string {
	switch p := pr.(type) {
	case *LDMProof:
		switch rng.Intn(3) {
		case 0:
			p.Params.C += 1 - 2*rng.Intn(2)
		case 1:
			p.Params.Bits += 1 - 2*rng.Intn(2)
		default:
			p.Params.Lambda *= []float64{2, 0.5, 0, -1, math.NaN()}[rng.Intn(5)]
		}
		return "hint parameters edited"
	case *HYPProof:
		if p.Hyper == nil {
			p.DistSig = flipBit(rng, p.DistSig)
			return "unused distance signature flipped"
		}
		es := p.Hyper.Entries
		i := rng.Intn(len(es))
		switch rng.Intn(6) {
		case 0:
			es[i].Value /= 2
			return "hyper-edge weight halved"
		case 1:
			p.Hyper.Entries = slices.Delete(es, i, i+1)
			return "hyper-edge dropped"
		case 2:
			p.Hyper = nil
			return "hyper-edges stripped"
		case 3:
			p.DistSig = flipBit(rng, p.DistSig)
			return "distance signature flipped"
		case 4:
			p.Hyper.Entries = append(es, es[i])
			return "hyper-edge repeated"
		default:
			if n := len(p.Hyper.MHT.Entries); n > 0 {
				p.Hyper.MHT.Entries = slices.Delete(p.Hyper.MHT.Entries, n-1, n)
			}
			return "hyper digest dropped"
		}
	case *FULLProof:
		switch rng.Intn(5) {
		case 0:
			p.DistVO.Entry.Value *= 0.9
			return "materialized distance shrunk"
		case 1:
			i, j := p.DistVO.Entry.Key.Split()
			p.DistVO.Entry.Key = mbt.MakeKey(j, i)
			return "distance entry re-keyed"
		case 2:
			p.DistSig = flipBit(rng, p.DistSig)
			return "distance signature flipped"
		case 3:
			if n := len(p.DistVO.Row.Entries); n > 0 {
				p.DistVO.Row.Entries = slices.Delete(p.DistVO.Row.Entries, n-1, n)
			}
			return "row digest dropped"
		default:
			top := p.DistVO.Top
			if len(top.Entries) > 0 {
				top.Entries = append(top.Entries, top.Entries[0])
				top.Entries[len(top.Entries)-1].Level++
			}
			return "top digest re-levelled"
		}
	}
	return "no-op"
}

// authenticVariant re-proves a perturbed node set (and, sometimes, a longer
// real path) against the provider's own trees: everything it returns passes
// authentication, so the verdict is the search's.
func authenticVariant(t *testing.T, rng *rand.Rand, w *testWorld, p Provider, pr Proof) (Proof, string) {
	t.Helper()
	fr, _ := partsOf(pr)
	ads := p.adsRef()
	var nodes []graph.NodeID
	for _, r := range fr.Tuples {
		nodes = append(nodes, graph.NodeID(binary.BigEndian.Uint32(r.Bytes)))
	}
	desc := "authentic:"
	for k := rng.Intn(4); k > 0 && len(nodes) > 1; k-- {
		i := rng.Intn(len(nodes))
		nodes = slices.Delete(nodes, i, i+1)
		desc += " node dropped"
	}
	for k := rng.Intn(3); k > 0; k-- {
		if v := graph.NodeID(rng.Intn(w.g.NumNodes())); !slices.Contains(nodes, v) {
			nodes = append(nodes, v)
			desc += " node added"
		}
	}
	if rng.Intn(3) == 0 {
		path := fr.Path
		if alt, d := subOptimalPath(w.g, path.Source(), path.Target()); alt != nil {
			fr.Path, fr.Dist = alt, d
			desc += " longer real path"
			if rng.Intn(2) == 0 {
				for _, v := range alt {
					if !slices.Contains(nodes, v) {
						nodes = append(nodes, v)
					}
				}
				desc += " with its tuples"
			}
		}
	}
	if _, canonical := pr.(*DIJProof); !canonical || rng.Intn(2) == 0 {
		nodes = canonicalNodes(ads, nodes)
	}
	mp, err := ads.Prove(nodes)
	if err != nil {
		t.Fatal(err)
	}
	fr.Tuples, fr.MHT = ads.Records(nodes), mp
	return pr, desc
}

// canonicalNodes orders a node set by Merkle leaf position, de-duplicated:
// the record order ProveCanonical emits.
func canonicalNodes(ads *networkADS, nodes []graph.NodeID) []graph.NodeID {
	slices.SortFunc(nodes, func(u, v graph.NodeID) int { return cmp.Compare(ads.Pos(u), ads.Pos(v)) })
	return slices.Compact(nodes)
}

// treeDigest is digest i of level l of a provider-side tree: a level is one
// slab, |H| bytes a digest.
func treeDigest(t *mht.Tree, l, i int) []byte {
	size := t.Alg().Size()
	return t.Levels()[l][i*size : (i+1)*size]
}
