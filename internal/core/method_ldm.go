package core

import (
	"math"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/snapshot"
)

// This file is LDM's registry entry and snapshot section codec. The
// entry's Outsource, VerifyProof and DecodeProof are in ldm.go with the
// provider's QueryProof; its Patch is in update.go.

// Method names the provider's verification method.
func (p *LDMProvider) Method() Method { return LDM }

// ldmImpl is LDM's registry entry.
type ldmImpl struct{}

func (ldmImpl) Method() Method { return LDM }

func (ldmImpl) SnapshotKind() uint32 { return snapKindLDM }

// StreamSnapshot encodes: rootSig | bits u32 | lambda f64 | c u32 |
// c × landmark u32 | c × n × dist f64 | network tree. The exact distance
// rows are the stored truth; quantization, compression and payloads are
// re-derived at load (deterministically, λ pinned), exactly as the
// incremental update pipeline derives them. The rows are a large snapshot's
// dominant payload, and streaming them row by row keeps the owner from
// holding the section twice.
func (ldmImpl) StreamSnapshot(sw *snapshot.Writer, p Provider) error {
	lp, err := providerAs[*LDMProvider](LDM, p)
	if err != nil {
		return err
	}
	h := lp.hints
	size := snapBytesSize(lp.rootSig) + 4 + 8 + 4 + 4*uint64(len(h.Landmarks)) +
		snapTreeSize(lp.ads.tree)
	for _, row := range h.Dists {
		size += 8 * uint64(len(row))
	}
	return streamSection(sw, snapKindLDM, size, func(s *snapStream) {
		s.bytes(lp.rootSig)
		s.u32(uint32(h.Bits))
		s.f64(h.Lambda)
		s.u32(uint32(len(h.Landmarks)))
		for _, l := range h.Landmarks {
			s.u32(uint32(l))
		}
		for _, row := range h.Dists {
			s.f64s(row)
		}
		s.tree(lp.ads.tree)
	})
}

func (ldmImpl) DecodeSnapshot(r *snapshot.SectionReader, env *SnapshotEnv) (Provider, error) {
	c := newSnapCursor(r)
	rootSig := c.bytes()
	bits := int(c.u32())
	lambda := c.f64()
	nl := int(c.u32())
	if c.err == nil && (bits < 1 || bits > 30) {
		c.fail("quantization bits %d out of range", bits)
	}
	if c.err == nil && (lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0)) {
		c.fail("bad lambda %v", lambda)
	}
	n := env.Graph.NumNodes()
	if c.err == nil && (nl < 1 || int64(nl) > c.remaining()/4) {
		c.fail("landmark count %d exceeds payload", nl)
	}
	var landmarks []graph.NodeID
	for i := 0; i < nl && c.err == nil; i++ {
		l := graph.NodeID(c.u32())
		if int(l) >= n || l < 0 {
			c.fail("landmark %d out of range [0, %d)", l, n)
			break
		}
		landmarks = append(landmarks, l)
	}
	dists := c.rows(nl, n)
	tree := c.tree()
	if err := c.finish("LDM"); err != nil {
		return nil, err
	}
	h, _ := landmark.FromRows(landmarks, dists, landmark.Options{
		C:           len(landmarks),
		Bits:        bits,
		Xi:          env.Cfg.Xi,
		FixedLambda: lambda,
	})
	ads, err := env.rehydrateADS(tree, func(v graph.NodeID) []byte {
		return h.PayloadOf(v).AppendBinary(h.Bits, nil)
	})
	if err != nil {
		return nil, err
	}
	return &LDMProvider{providerBase: providerBase{env.Graph, ads}, hints: h, rootSig: rootSig}, nil
}
