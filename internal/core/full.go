package core

import (
	"fmt"
	"sync"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/sp"
)

// fullRowFn regenerates source rows against a network — the forest's
// on-demand half for proofs, and the callback swapped in when an update
// publishes the next epoch's network.
func fullRowFn(view *graph.CSR) func(i int) []float64 {
	return func(i int) []float64 {
		w := sp.AcquireWorkspace(view.NumNodes())
		defer sp.ReleaseWorkspace(w)
		return w.DijkstraRow(view, graph.NodeID(i), nil)
	}
}

// This file implements FULL, fully materialized distance verification
// (paper §IV-B): the owner materializes dist(vi, vj) for every node pair
// into a distance Merkle B-tree; the shortest path proof is a single
// authenticated distance lookup and the integrity proof certifies the
// reported path's tuples.
//
// The all-pairs computation streams per-source rows (repeated Dijkstra, see
// DESIGN.md §3) through a two-level Merkle forest that retains only O(|V|)
// state — the construction still touches all |V|² distances, which is the
// cost blow-up the paper's Fig 8c/9b report.

var (
	fullNetCtx  = []byte("spv/FULL/network/v1\x00")
	fullDistCtx = []byte("spv/FULL/distance/v1\x00")
)

// FULLProvider is the service provider's state for the FULL method.
// Immutable once outsourced; QueryProof is safe for concurrent use (see the
// package Concurrency note). Forest row re-derivation runs on pooled
// workspaces over the frozen CSR view.
type FULLProvider struct {
	providerBase
	forest  *mbt.Forest
	netSig  []byte
	distSig []byte
}

// Outsource builds the network ADS and the all-pairs distance forest, and
// signs both roots. This is the method whose pre-computation explodes with
// |V| (quadratic output, |V| Dijkstra runs) — both the Dijkstra runs and
// the per-row subtree hashing fan out across GOMAXPROCS workers, each
// worker folding its own rows (ForestBuilder.SetRow) so no quadratic work
// serializes behind a reorder buffer. Row roots land in dense source order
// regardless of completion order, keeping the forest root byte-identical
// to a serial build.
func (fullImpl) Outsource(o *Owner, _ sp.TreeSink) (Provider, error) {
	net := o.Graph()
	ads, err := buildNetworkADS(net, o.cfg, nil)
	if err != nil {
		return nil, err
	}
	n := net.NumNodes()
	builder, err := mbt.NewForestBuilder(o.cfg.Hash, o.cfg.Fanout, n)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var addErr error
	sp.AllPairsRows(net, func(src graph.NodeID, dist []float64) {
		if err := builder.SetRow(int(src), dist); err != nil {
			mu.Lock()
			if addErr == nil {
				addErr = err
			}
			mu.Unlock()
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	forest, err := builder.Finish(fullRowFn(net))
	if err != nil {
		return nil, err
	}
	netSig, err := o.signRoot(fullNetCtx, ads.Root())
	if err != nil {
		return nil, err
	}
	distSig, err := o.signRoot(fullDistCtx, forest.Root())
	if err != nil {
		return nil, err
	}
	return &FULLProvider{providerBase: providerBase{net, ads}, forest: forest, netSig: netSig, distSig: distSig}, nil
}

// FULLProof is the answer to a FULL query: the path, the distance proof ΓS
// (one authenticated ⟨vs, vt, dist⟩ entry), and the integrity proof ΓT for
// the path's tuples.
type FULLProof struct {
	proofFrame
	DistVO  *mbt.ForestProof
	NetSig  []byte
	DistSig []byte
}

// QueryProof answers a FULL query: the distance proof comes straight out
// of the forest; the network proof covers exactly the path nodes.
func (p *FULLProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	s := acquireScratch(p.view.NumNodes())
	defer releaseScratch(s)
	if err := p.checkEndpoints(vs, vt); err != nil {
		return nil, err
	}
	dist, path := s.ws.DijkstraTo(p.view, vs, vt)
	if path == nil {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoPath, vs, vt)
	}
	vo, err := p.forest.ProveWith(&s.forest, int(vs), int(vt))
	if err != nil {
		return nil, err
	}
	mhtProof, err := p.ads.ProveWith(s, path)
	if err != nil {
		return nil, err
	}
	return &FULLProof{
		proofFrame: proofFrame{path, dist, p.ads.Records(path), mhtProof},
		DistVO:     vo,
		NetSig:     p.netSig,
		DistSig:    p.distSig,
	}, nil
}

// VerifyProof is the client side of §IV-B: authenticate the materialized
// distance, authenticate the path tuples, and check the reported path sums
// to exactly that distance.
func (fullImpl) VerifyProof(verifier SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	proof, err := proofAs[*FULLProof](FULL, pr)
	if err != nil {
		return err
	}
	if proof == nil || proof.DistVO == nil || proof.MHT == nil {
		return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
	}
	// Distance ADS: the proven entry must be for exactly (vs, vt).
	i, j := proof.DistVO.Entry.Key.Split()
	if graph.NodeID(i) != vs || graph.NodeID(j) != vt {
		return reject(fmt.Errorf("%w: distance entry is for (%d, %d), not (%d, %d)",
			ErrPathMismatch, i, j, vs, vt))
	}
	distRoot, err := proof.DistVO.Root()
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
	}
	s := acquireVerifyScratch()
	defer releaseVerifyScratch(s)
	if err := s.checkSig(verifier, fullDistCtx, distRoot, proof.DistSig); err != nil {
		return err
	}
	trueDist := proof.DistVO.Entry.Value

	// Network ADS over the path tuples.
	if err := s.authenticate(verifier, proof.Tuples, plainTuples, proof.MHT, fullNetCtx, proof.NetSig); err != nil {
		return err
	}
	claimed, err := s.tab.checkClaimedPath(proof.Path, vs, vt, proof.Dist)
	if err != nil {
		return err
	}
	return checkOptimal(trueDist, claimed)
}

// Stats returns the communication breakdown: ΓS is the distance VO, ΓT is
// the path tuple proof plus signatures.
func (pr *FULLProof) Stats() ProofStats {
	return ProofStats{
		SBytes: pr.DistVO.EncodedSize() + 4 + len(pr.DistSig),
		SItems: pr.DistVO.NumItems() + 1,
		TBytes: tupleBlockSize(pr.Tuples) + pr.MHT.EncodedSize() + 4 + len(pr.NetSig),
		TItems: len(pr.Tuples) + pr.MHT.NumEntries() + 1,
		Base:   pathWireSize(pr.Path) + 8,
	}
}

// AppendBinary serializes the proof:
//
//	path | dist | forest VO | tuple block | mht proof | netSig | distSig
func (pr *FULLProof) AppendBinary(buf []byte) []byte {
	buf = pr.appendHead(buf)
	buf = pr.DistVO.AppendBinary(buf)
	buf = pr.appendBody(buf)
	buf = appendBytes(buf, pr.NetSig)
	return appendBytes(buf, pr.DistSig)
}

// DecodeProof parses a serialized FULL proof (layout at AppendBinary).
func (fullImpl) DecodeProof(buf []byte) (Proof, int, error) {
	r := wireReader{buf: buf}
	pr := &FULLProof{}
	r.head(&pr.proofFrame)
	pr.DistVO = nested(&r, mbt.DecodeForestProof)
	r.body(&pr.proofFrame)
	pr.NetSig = r.bytes("network signature")
	pr.DistSig = r.bytes("distance signature")
	return r.done(pr)
}
