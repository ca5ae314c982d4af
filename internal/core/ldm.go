package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/mht"
)

// This file implements LDM, landmark-based verification (paper §V-A): the
// owner embeds quantized, compressed landmark distance vectors into the
// extended-tuples; the provider ships the A*-containment subgraph of
// Lemma 2; the client re-runs A* with the Lemma 4 lower bound.

// ldmSigCtxBase binds LDM signatures to the method; the full context also
// covers the public hint parameters (c, b, λ), so a provider cannot reuse a
// root under altered parameters.
var ldmSigCtxBase = []byte("spv/LDM/network/v1\x00")

func ldmSigCtx(p landmark.Params) []byte { return appendLDMSigCtx(nil, p) }

func appendLDMSigCtx(buf []byte, p landmark.Params) []byte {
	buf = append(buf, ldmSigCtxBase...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.C))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Bits))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Lambda))
	return buf
}

// LDMProvider is the service provider's state for the LDM method.
// Immutable after OutsourceLDM; Query is safe for concurrent use (see the
// package Concurrency note). Searches iterate the frozen CSR view.
type LDMProvider struct {
	g       *graph.Graph
	view    *graph.CSR
	hints   *landmark.Hints
	ads     *networkADS
	rootSig []byte
}

// OutsourceLDM builds the landmark hints (c Dijkstra runs + quantization +
// compression), embeds each node's payload into its extended-tuple, builds
// the network Merkle tree and signs its root together with the hint
// parameters.
func (o *Owner) OutsourceLDM() (*LDMProvider, error) {
	h, _, err := landmark.Build(o.g, landmark.Options{
		C:           o.cfg.Landmarks,
		Bits:        o.cfg.QuantBits,
		Xi:          o.cfg.Xi,
		Strategy:    o.cfg.Strategy,
		Seed:        o.cfg.HintSeed,
		Fixed:       o.cfg.PinnedLandmarks,
		FixedLambda: o.cfg.PinnedLambda,
	})
	if err != nil {
		return nil, err
	}
	ads, err := buildNetworkADS(o.g, o.cfg, func(v graph.NodeID) []byte {
		return h.PayloadOf(v).AppendBinary(h.Bits, nil)
	})
	if err != nil {
		return nil, err
	}
	params := landmark.Params{C: h.C(), Bits: h.Bits, Lambda: h.Lambda}
	rootSig, err := o.signRoot(ldmSigCtx(params), ads.Root())
	if err != nil {
		return nil, err
	}
	return &LDMProvider{g: o.g, view: o.frozenView(), hints: h, ads: ads, rootSig: rootSig}, nil
}

// Landmarks returns the provider's landmark placement (a copy). An
// incremental update pipeline pins this set; pass it as
// Config.PinnedLandmarks to reproduce an updated owner's hints byte for
// byte in a from-scratch re-outsource.
func (p *LDMProvider) Landmarks() []graph.NodeID {
	return append([]graph.NodeID(nil), p.hints.Landmarks...)
}

// Lambda returns the provider's quantization step — pass it as
// Config.PinnedLambda alongside PinnedLandmarks when reproducing an
// updated owner byte for byte.
func (p *LDMProvider) Lambda() float64 { return p.hints.Lambda }

// LDMProof is the answer to an LDM query: the path, the hint parameters,
// the Lemma 2 subgraph tuples (with embedded landmark payloads), and the
// integrity proof.
type LDMProof struct {
	Path    graph.Path
	Dist    float64
	Params  landmark.Params
	Tuples  []tupleRecord
	MHT     *mht.Proof
	RootSig []byte
}

// Query runs Algorithm 1 for LDM: collect Γ = {Φ(v), Φ(v') | (v,v') ∈ E,
// dist(vs,v) + distLB(v,vt) ≤ dist(vs,vt)} (Lemma 2), closed over the
// reference nodes whose vectors compressed payloads point at.
func (p *LDMProvider) Query(vs, vt graph.NodeID) (*LDMProof, error) {
	s := acquireScratch(p.view.NumNodes())
	defer releaseScratch(s)
	if err := checkEndpoints(p.g, vs, vt); err != nil {
		return nil, err
	}
	dist, path, settled := s.ws.DijkstraBall(p.view, vs, vt, providerSlack)
	if path == nil {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoPath, vs, vt)
	}
	bound := dist * providerSlack

	s.resetMark(p.view.NumNodes())
	for _, v := range settled {
		if s.ws.DistOf(v)+p.hints.LB(v, vt) <= bound {
			s.add(v)
			for _, e := range p.view.Neighbors(v) {
				s.add(e.To)
			}
		}
	}
	// Close over reference nodes: compressed payloads are only evaluable
	// when the representative's vector is also present. The index loop sees
	// nodes appended during the walk, like the map-based closure did.
	for i := 0; i < len(s.nodes); i++ {
		if ref := p.hints.Ref[s.nodes[i]]; ref != s.nodes[i] {
			s.add(ref)
		}
	}
	// The include set is in insertion order: canonicalize so identical
	// queries produce byte-identical proofs (cacheable by the serve layer).
	nodes := p.ads.Canonical(s.nodes)
	mhtProof, err := p.ads.ProveWith(s, nodes)
	if err != nil {
		return nil, err
	}
	return &LDMProof{
		Path:    path,
		Dist:    dist,
		Params:  landmark.Params{C: p.hints.C(), Bits: p.hints.Bits, Lambda: p.hints.Lambda},
		Tuples:  p.ads.Records(nodes),
		MHT:     mhtProof,
		RootSig: p.rootSig,
	}, nil
}

// VerifyLDM is the client side of §V-A: authenticate the subgraph (payloads
// included), then re-run A* with the compressed landmark lower bound and
// compare against the reported path.
func VerifyLDM(verifier SigVerifier, vs, vt graph.NodeID, proof *LDMProof) error {
	if proof == nil || proof.MHT == nil {
		return reject(fmt.Errorf("%w: missing parts", ErrMalformedProof))
	}
	if proof.Params.C <= 0 || proof.Params.Bits <= 0 || proof.Params.Bits > 30 ||
		proof.Params.Lambda <= 0 || math.IsNaN(proof.Params.Lambda) || math.IsInf(proof.Params.Lambda, 0) {
		return reject(fmt.Errorf("%w: bad hint parameters %+v", ErrMalformedProof, proof.Params))
	}
	s := acquireVerifyScratch()
	defer releaseVerifyScratch(s)
	var ctxBuf [48]byte // base + 16 bytes of parameters: stays on the stack
	ctx := appendLDMSigCtx(ctxBuf[:0], proof.Params)
	if err := s.authenticate(verifier, proof.Tuples, tupleExtra{ldm: proof.Params}, proof.MHT, ctx, proof.RootSig); err != nil {
		return err
	}
	claimed, err := s.tab.checkClaimedPath(proof.Path, vs, vt, proof.Dist)
	if err != nil {
		return err
	}
	target := s.tab.slot(vt)
	if target < 0 {
		return reject(fmt.Errorf("%w: no payload for target %d", ErrIncompleteProof, vt))
	}
	recomputed, err := s.tupleAStar(vs, vt, func(u int32) (float64, error) { return s.tab.lb(u, target) }, claimed)
	if err != nil {
		return reject(err)
	}
	return checkOptimal(recomputed, claimed)
}

// Stats returns the communication breakdown: ΓS is the (payload-carrying)
// tuple set, ΓT the Merkle digests plus signature. The hint parameters ride
// in the base bytes.
func (pr *LDMProof) Stats() ProofStats {
	return ProofStats{
		SBytes: tupleBlockSize(pr.Tuples),
		SItems: len(pr.Tuples),
		TBytes: pr.MHT.EncodedSize() + 4 + len(pr.RootSig),
		TItems: pr.MHT.NumEntries() + 1,
		Base:   pathWireSize(pr.Path) + 8 + 16,
	}
}

// AppendBinary serializes the proof:
//
//	path | dist | c u32 | bits u32 | lambda f64 | tuple block | mht | sig
func (pr *LDMProof) AppendBinary(buf []byte) []byte {
	buf = appendPath(buf, pr.Path)
	buf = appendFloat(buf, pr.Dist)
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.Params.C))
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.Params.Bits))
	buf = appendFloat(buf, pr.Params.Lambda)
	buf = appendTupleBlock(buf, pr.Tuples)
	buf = pr.MHT.AppendBinary(buf)
	return appendBytes(buf, pr.RootSig)
}

// DecodeLDMProof parses a serialized LDM proof.
func DecodeLDMProof(buf []byte) (*LDMProof, int, error) {
	pr := &LDMProof{}
	path, off, err := decodePath(buf)
	if err != nil {
		return nil, 0, err
	}
	pr.Path = path
	d, n, err := decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	pr.Dist = d
	off += n
	if len(buf[off:]) < 16 {
		return nil, 0, fmt.Errorf("%w: LDM params truncated", ErrMalformedProof)
	}
	pr.Params.C = int(binary.BigEndian.Uint32(buf[off:]))
	pr.Params.Bits = int(binary.BigEndian.Uint32(buf[off+4:]))
	off += 8
	pr.Params.Lambda, n, err = decodeFloat(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	pr.Tuples, n, err = decodeTupleBlock(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	mp, n, err := mht.DecodeProof(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	pr.MHT = mp
	off += n
	rootSig, n, err := decodeBytes(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	pr.RootSig = rootSig
	return pr, off + n, nil
}
