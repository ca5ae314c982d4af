package core

import (
	"fmt"
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/sp"
)

// This file implements DIJ, Dijkstra subgraph verification (paper §IV-A):
// no pre-computed hints; the shortest path proof is the subgraph of every
// node within dist(vs, vt) of the source (Lemma 1), and the client verifies
// by re-running Dijkstra over the proof.

// dijSigCtx binds DIJ root signatures to the method name.
var dijSigCtx = []byte("spv/DIJ/network/v1\x00")

// providerSlack slightly inflates the provider's containment bound so that
// a client summing the same weights in a different order can never demand a
// tuple the provider excluded.
const providerSlack = 1 + 4*distTolerance

// DIJProvider is the service provider's state for the DIJ method.
// Immutable once outsourced; QueryProof is safe for concurrent use (see the
// package Concurrency note). Searches iterate the frozen CSR view, and all
// per-query scratch comes from the shared pool in scratch.go.
type DIJProvider struct {
	providerBase
	rootSig []byte
}

// Outsource builds the DIJ provider bundle: the network Merkle tree over
// plain extended-tuples plus the signed root. DIJ needs no authenticated
// hints, so this is the cheapest possible outsourcing.
func (dijImpl) Outsource(o *Owner, _ sp.TreeSink) (Provider, error) {
	net := o.Graph()
	ads, err := buildNetworkADS(net, o.cfg, nil)
	if err != nil {
		return nil, err
	}
	rootSig, err := o.signRoot(dijSigCtx, ads.Root())
	if err != nil {
		return nil, err
	}
	return &DIJProvider{providerBase{net, ads}, rootSig}, nil
}

// DIJProof is the answer to a DIJ query: the result path, the subgraph
// proof ΓS (Lemma 1's tuple set), and the integrity proof ΓT (Merkle
// digests plus the signed root).
type DIJProof struct {
	proofFrame
	RootSig []byte
}

// QueryProof runs Algorithm 1 for DIJ: compute the shortest path, collect
// Γ = {Φ(v) | dist(vs, v) ≤ dist(vs, vt)}, and derive the integrity proof.
func (p *DIJProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	s := acquireScratch(p.view.NumNodes())
	defer releaseScratch(s)
	if err := p.checkEndpoints(vs, vt); err != nil {
		return nil, err
	}
	dist, path, settled := s.ws.DijkstraBall(p.view, vs, vt, providerSlack)
	if path == nil {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoPath, vs, vt)
	}
	mhtProof, err := p.ads.ProveWith(s, settled)
	if err != nil {
		return nil, err
	}
	return &DIJProof{proofFrame{path, dist, p.ads.Records(settled), mhtProof}, p.rootSig}, nil
}

// VerifyProof is the client side of §IV-A: authenticate the subgraph,
// re-run Dijkstra over it, and check that the reported path is a real path
// whose length equals the re-computed shortest distance. A nil error means
// the path is verified correct (authentic and optimal).
func (dijImpl) VerifyProof(verifier SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	proof, err := proofAs[*DIJProof](DIJ, pr)
	if err != nil {
		return err
	}
	if proof == nil || proof.MHT == nil {
		return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
	}
	s := acquireVerifyScratch()
	defer releaseVerifyScratch(s)
	if err := s.authenticate(verifier, proof.Tuples, plainTuples, proof.MHT, dijSigCtx, proof.RootSig); err != nil {
		return err
	}
	// Path structure: endpoints, real edges (certified by tuples), length.
	claimed, err := s.tab.checkClaimedPath(proof.Path, vs, vt, proof.Dist)
	if err != nil {
		return err
	}
	// Re-run Dijkstra over the proof subgraph (Lemma 1).
	recomputed, err := s.tupleDijkstra(vs, vt, claimed)
	if err != nil {
		return reject(err)
	}
	return checkOptimal(recomputed, claimed)
}

// checkClaimedPath validates the reported path against the authenticated
// tuples: endpoints match the query, every hop is an edge certified by its
// tail's tuple (a tuple carries full adjacency), and the claimed distance
// equals the path's weight sum. It returns the verified path length.
func (t *tupleTable) checkClaimedPath(path graph.Path, vs, vt graph.NodeID, claimed float64) (float64, error) {
	if len(path) < 2 || path.Source() != vs || path.Target() != vt {
		return 0, reject(fmt.Errorf("%w: endpoints", ErrPathMismatch))
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		tail := t.slot(path[i-1])
		if tail < 0 {
			return 0, reject(fmt.Errorf("%w: no tuple for node %d", ErrPathMismatch, path[i-1]))
		}
		w, ok := graph.Tuple{Adj: t.adj(tail)}.Weight(path[i])
		if !ok {
			return 0, reject(fmt.Errorf("%w: tuple %d has no edge to %d", ErrPathMismatch, path[i-1], path[i]))
		}
		sum += w
	}
	if !distEqual(sum, claimed) || math.IsNaN(claimed) {
		return 0, reject(fmt.Errorf("%w: claimed distance %g, path sums to %g", ErrPathMismatch, claimed, sum))
	}
	return sum, nil
}

// checkOptimal compares the re-computed shortest distance with the claimed
// path length.
func checkOptimal(recomputed, claimed float64) error {
	if recomputed == sp.Unreachable {
		return reject(fmt.Errorf("%w: proof subgraph does not even reach the target", ErrIncompleteProof))
	}
	if !distEqual(recomputed, claimed) {
		if recomputed < claimed {
			return reject(fmt.Errorf("%w: shortest is %g, path is %g", ErrNotShortest, recomputed, claimed))
		}
		return reject(fmt.Errorf("%w: subgraph distance %g exceeds claimed %g", ErrIncompleteProof, recomputed, claimed))
	}
	return nil
}

// --- metrics & wire format ---

// Stats returns the proof's communication breakdown: ΓS is the tuple set,
// ΓT is the Merkle digests plus signature (the paper's S-prf / T-prf split).
func (pr *DIJProof) Stats() ProofStats {
	return ProofStats{
		SBytes: tupleBlockSize(pr.Tuples),
		TBytes: pr.MHT.EncodedSize() + 4 + len(pr.RootSig),
		SItems: len(pr.Tuples),
		TItems: pr.MHT.NumEntries() + 1,
		Base:   pathWireSize(pr.Path) + 8,
	}
}

// AppendBinary serializes the proof:
//
//	path | dist float64 | tuple block | mht proof | rootSig
func (pr *DIJProof) AppendBinary(buf []byte) []byte {
	buf = pr.appendHead(buf)
	buf = pr.appendBody(buf)
	return appendBytes(buf, pr.RootSig)
}

// DecodeProof parses a serialized DIJ proof (layout at AppendBinary).
func (dijImpl) DecodeProof(buf []byte) (Proof, int, error) {
	r := wireReader{buf: buf}
	pr := &DIJProof{}
	r.head(&pr.proofFrame)
	r.body(&pr.proofFrame)
	pr.RootSig = r.bytes("root signature")
	return r.done(pr)
}
