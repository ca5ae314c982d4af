package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/sp"
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
// Immutable once outsourced; QueryProof is safe for concurrent use (see the
// package Concurrency note). Searches iterate the frozen CSR view.
type LDMProvider struct {
	providerBase
	hints   *landmark.Hints
	rootSig []byte
}

// Outsource builds the landmark hints (c Dijkstra runs + quantization +
// compression), embeds each node's payload into its extended-tuple, builds
// the network Merkle tree and signs its root together with the hint
// parameters.
func (ldmImpl) Outsource(o *Owner, trees sp.TreeSink) (Provider, error) {
	net := o.Graph()
	h, _, err := landmark.Build(net, landmark.Options{
		C:           o.cfg.Landmarks,
		Bits:        o.cfg.QuantBits,
		Xi:          o.cfg.Xi,
		Strategy:    o.cfg.Strategy,
		Seed:        o.cfg.HintSeed,
		Fixed:       o.cfg.PinnedLandmarks,
		FixedLambda: o.cfg.PinnedLambda,
		Trees:       trees,
	})
	if err != nil {
		return nil, err
	}
	ads, err := buildNetworkADS(net, o.cfg, func(v graph.NodeID) []byte {
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
	return &LDMProvider{providerBase: providerBase{net, ads}, hints: h, rootSig: rootSig}, nil
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
	proofFrame
	Params  landmark.Params
	RootSig []byte
}

// QueryProof runs Algorithm 1 for LDM: collect Γ = {Φ(v), Φ(v') | (v,v') ∈
// E, dist(vs,v) + distLB(v,vt) ≤ dist(vs,vt)} (Lemma 2), closed over the
// reference nodes whose vectors compressed payloads point at.
func (p *LDMProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	s := acquireScratch(p.view.NumNodes())
	defer releaseScratch(s)
	if err := p.checkEndpoints(vs, vt); err != nil {
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
	recs, mhtProof, err := p.ads.ProveCanonical(s, s.nodes)
	if err != nil {
		return nil, err
	}
	return &LDMProof{
		proofFrame: proofFrame{path, dist, recs, mhtProof},
		Params:     landmark.Params{C: p.hints.C(), Bits: p.hints.Bits, Lambda: p.hints.Lambda},
		RootSig:    p.rootSig,
	}, nil
}

// VerifyProof is the client side of §V-A: authenticate the subgraph
// (payloads included), then re-run A* with the compressed landmark lower
// bound and compare against the reported path.
func (ldmImpl) VerifyProof(verifier SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	proof, err := proofAs[*LDMProof](LDM, pr)
	if err != nil {
		return err
	}
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
	buf = pr.appendHead(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.Params.C))
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.Params.Bits))
	buf = appendFloat(buf, pr.Params.Lambda)
	buf = pr.appendBody(buf)
	return appendBytes(buf, pr.RootSig)
}

// DecodeProof parses a serialized LDM proof (layout at AppendBinary).
func (ldmImpl) DecodeProof(buf []byte) (Proof, int, error) {
	r := wireReader{buf: buf}
	pr := &LDMProof{}
	r.head(&pr.proofFrame)
	pr.Params.C = int(r.u32("LDM params"))
	pr.Params.Bits = int(r.u32("LDM params"))
	pr.Params.Lambda = r.f64("LDM params")
	r.body(&pr.proofFrame)
	pr.RootSig = r.bytes("root signature")
	return r.done(pr)
}
