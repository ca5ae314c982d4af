package core

import (
	"fmt"
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/sp"
)

// This file implements HYP, hyper-graph verification (paper §V-B): the
// owner builds a 2-level HiTi structure — grid cells, border flags and
// materialized border-pair distances W* in a distance Merkle B-tree — and
// annotates every extended-tuple with its cell and border flag (Eq. 7).
//
// A query proof combines (1) a coarse subgraph proof: the full source and
// target cells plus the hyper-edges between their borders, and (2) a fine
// distance proof: the tuples of the reported path. The client re-computes
// the exact shortest distance by Theorem 2: intra-cell Dijkstra in both
// cells stitched through authenticated hyper-edge weights.

var (
	hypNetCtx  = []byte("spv/HYP/network/v1\x00")
	hypDistCtx = []byte("spv/HYP/distance/v1\x00")
)

// HYPProvider is the service provider's state for the HYP method.
// Immutable once outsourced; QueryProof is safe for concurrent use (see the
// package Concurrency note). Searches iterate the frozen CSR view.
type HYPProvider struct {
	providerBase
	hyper   *hiti.Hyper
	distMBT *mbt.Tree
	netSig  []byte
	distSig []byte
}

// Outsource builds the HiTi hyper-graph (one Dijkstra per border node), the
// hyper-edge distance Merkle B-tree and the annotated network tree, and
// signs both roots.
func (hypImpl) Outsource(o *Owner, trees sp.TreeSink) (Provider, error) {
	net := o.Graph()
	hyper, err := hiti.Build(net, o.cfg.Cells, trees)
	if err != nil {
		return nil, err
	}
	ads, err := buildNetworkADS(net, o.cfg, hyper.Extra)
	if err != nil {
		return nil, err
	}
	p := &HYPProvider{providerBase: providerBase{net, ads}, hyper: hyper}
	if n := hyper.NumHyperEdges(); n > 0 {
		p.distMBT, err = mbt.Build(o.cfg.Hash, o.cfg.Fanout, n, hyper.AppendEntries)
		if err != nil {
			return nil, err
		}
		p.distSig, err = o.signRoot(hypDistCtx, p.distMBT.Root())
		if err != nil {
			return nil, err
		}
	}
	p.netSig, err = o.signRoot(hypNetCtx, ads.Root())
	if err != nil {
		return nil, err
	}
	return p, nil
}

// HYPProof is the answer to a HYP query; its tuples are every source and
// target cell tuple plus the fine path tuples.
type HYPProof struct {
	proofFrame
	Hyper   *mbt.Proof // hyper-edges between the two cells' borders (nil if none)
	NetSig  []byte
	DistSig []byte
}

// NumBorders reports how many border nodes the HiTi partition produced
// (experiment instrumentation for the Fig 13 sweep).
func (p *HYPProvider) NumBorders() int { return p.hyper.NumBorders() }

// QueryProof runs Algorithm 1 for HYP: coarse proof over the source and
// target cells plus their border hyper-edges, fine proof over the path.
func (p *HYPProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	s := acquireScratch(p.view.NumNodes())
	defer releaseScratch(s)
	if err := p.checkEndpoints(vs, vt); err != nil {
		return nil, err
	}
	dist, path := s.ws.DijkstraTo(p.view, vs, vt)
	if path == nil {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoPath, vs, vt)
	}
	cs, ct := p.hyper.CellOf[vs], p.hyper.CellOf[vt]

	// No include-set: ProveCanonical de-duplicates, and the two cells may
	// coincide and the path runs through them.
	s.nodes = append(s.nodes[:0], p.hyper.NodesOf(cs)...)
	s.nodes = append(s.nodes, p.hyper.NodesOf(ct)...)
	s.nodes = append(s.nodes, path...) // fine proof: intermediate-cell path nodes
	recs, mhtProof, err := p.ads.ProveCanonical(s, s.nodes)
	if err != nil {
		return nil, err
	}

	proof := &HYPProof{
		proofFrame: proofFrame{path, dist, recs, mhtProof},
		NetSig:     p.netSig,
		DistSig:    p.distSig,
	}
	if edges := p.hyper.CellPairEntries(cs, ct); len(edges) > 0 {
		proof.Hyper, err = p.distMBT.Prove(&s.prove, edges)
		if err != nil {
			return nil, err
		}
	}
	return proof, nil
}

// VerifyProof is the client side of §V-B.
func (hypImpl) VerifyProof(verifier SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	proof, err := proofAs[*HYPProof](HYP, pr)
	if err != nil {
		return err
	}
	if proof == nil || proof.MHT == nil {
		return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
	}
	s := acquireVerifyScratch()
	defer releaseVerifyScratch(s)
	if err := s.authenticate(verifier, proof.Tuples, hypTuples, proof.MHT, hypNetCtx, proof.NetSig); err != nil {
		return err
	}
	// Authenticate the hyper-edge entries (if any) and index them.
	clear(s.hyperW)
	if proof.Hyper != nil {
		distRoot, err := proof.Hyper.Root()
		if err != nil {
			return reject(fmt.Errorf("%w: %v", ErrIncompleteProof, err))
		}
		if err := s.checkSig(verifier, hypDistCtx, distRoot, proof.DistSig); err != nil {
			return err
		}
		for _, e := range proof.Hyper.Entries {
			s.hyperW[e.Key] = e.Value
		}
	}
	claimed, err := s.tab.checkClaimedPath(proof.Path, vs, vt, proof.Dist)
	if err != nil {
		return err
	}
	return s.hypCoarse(vs, vt, claimed)
}

// hypCoarse is the coarse re-computation of Theorem 2: intra-cell searches
// from both endpoints, stitched through the authenticated hyper-edge
// weights between the two cells' settled border nodes.
func (s *verifyScratch) hypCoarse(vs, vt graph.NodeID, claimed float64) error {
	t := &s.tab
	from, to := t.slot(vs), t.slot(vt)
	if from < 0 {
		return reject(fmt.Errorf("%w: no tuple for source %d", ErrIncompleteProof, vs))
	}
	if to < 0 {
		return reject(fmt.Errorf("%w: no tuple for target %d", ErrIncompleteProof, vt))
	}
	if err := s.cellDijkstra(from); err != nil {
		return reject(err)
	}
	coarse := math.MaxFloat64
	if t.cell[from] == t.cell[to] && s.mark[to] == markDone {
		coarse = s.dist[to]
	}
	s.borders = s.borders[:0]
	for b, m := range s.mark {
		if m == markDone && t.border[b] {
			s.borders = append(s.borders, borderDist{int32(b), s.dist[b]})
		}
	}
	if err := s.cellDijkstra(to); err != nil {
		return reject(err)
	}
	for bt, m := range s.mark {
		if m != markDone || !t.border[bt] {
			continue
		}
		for _, bs := range s.borders {
			w, ok := s.hyperW[hiti.HyperKey(t.ids[bs.slot], t.ids[bt], t.cell[bs.slot], t.cell[bt])]
			if !ok {
				return reject(fmt.Errorf("%w: hyper-edge (%d, %d) missing from proof",
					ErrIncompleteProof, t.ids[bs.slot], t.ids[bt]))
			}
			if w == sp.Unreachable {
				continue
			}
			if c := bs.dist + w + s.dist[bt]; c < coarse {
				coarse = c
			}
		}
	}
	if coarse == math.MaxFloat64 {
		return reject(fmt.Errorf("%w: coarse graph does not connect source and target", ErrIncompleteProof))
	}
	return checkOptimal(coarse, claimed)
}

// Stats returns the communication breakdown: ΓS is the coarse+fine tuples
// plus the hyper-edge entries; ΓT is the Merkle digests plus signatures.
func (pr *HYPProof) Stats() ProofStats {
	s := ProofStats{
		SBytes: tupleBlockSize(pr.Tuples),
		SItems: len(pr.Tuples),
		TBytes: pr.MHT.EncodedSize() + 4 + len(pr.NetSig) + 4 + len(pr.DistSig),
		TItems: pr.MHT.NumEntries() + 1,
		Base:   pathWireSize(pr.Path) + 8,
	}
	if pr.Hyper != nil {
		s.SBytes += 4 + len(pr.Hyper.Entries)*(16+4)
		s.SItems += len(pr.Hyper.Entries)
		s.TBytes += pr.Hyper.MHT.EncodedSize()
		s.TItems += pr.Hyper.MHT.NumEntries() + 1
	}
	return s
}

// AppendBinary serializes the proof:
//
//	path | dist | tuple block | mht | hasHyper u8 [| hyper proof] | netSig | distSig
func (pr *HYPProof) AppendBinary(buf []byte) []byte {
	buf = pr.appendHead(buf)
	buf = pr.appendBody(buf)
	if pr.Hyper != nil {
		buf = append(buf, 1)
		buf = pr.Hyper.AppendBinary(buf)
	} else {
		buf = append(buf, 0)
	}
	buf = appendBytes(buf, pr.NetSig)
	return appendBytes(buf, pr.DistSig)
}

// DecodeProof parses a serialized HYP proof (layout at AppendBinary).
func (hypImpl) DecodeProof(buf []byte) (Proof, int, error) {
	r := wireReader{buf: buf}
	pr := &HYPProof{}
	r.head(&pr.proofFrame)
	r.body(&pr.proofFrame)
	switch flag := r.u8("hyper flag"); flag {
	case 0:
	case 1:
		pr.Hyper = nested(&r, mbt.DecodeProof)
	default:
		r.fail("bad hyper flag %d", flag)
	}
	pr.NetSig = r.bytes("network signature")
	pr.DistSig = r.bytes("distance signature")
	return r.done(pr)
}
