package core

import (
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/snapshot"
)

// This file wires DIJ (dij.go) into the method registry: the erased
// Provider/Proof faces plus the snapshot section codec. The scheme logic
// itself stays in dij.go.

// Method names the provider's verification method.
func (p *DIJProvider) Method() Method { return DIJ }

// QueryProof answers one query behind the erased Provider face.
func (p *DIJProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	pr, err := p.Query(vs, vt)
	if err != nil {
		return nil, err
	}
	return pr, nil
}

func (p *DIJProvider) graphRef() *graph.Graph {
	if p == nil {
		return nil
	}
	return p.g
}

func (p *DIJProvider) adsRef() *networkADS {
	if p == nil {
		return nil
	}
	return p.ads
}

func (p *DIJProvider) viewRef() *graph.CSR {
	if p == nil {
		return nil
	}
	return p.view
}

// Result returns the reported path and its claimed distance.
func (pr *DIJProof) Result() (graph.Path, float64) { return pr.Path, pr.Dist }

// dijImpl is DIJ's registry entry.
type dijImpl struct{}

func (dijImpl) Method() Method { return DIJ }

func (dijImpl) Outsource(o *Owner) (Provider, error) {
	p, err := o.OutsourceDIJ()
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (dijImpl) DecodeProof(buf []byte) (Proof, int, error) {
	pr, n, err := DecodeDIJProof(buf)
	if err != nil {
		return nil, 0, err
	}
	return pr, n, nil
}

func (dijImpl) VerifyProof(v SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	p, err := proofAs[*DIJProof](DIJ, pr)
	if err != nil {
		return err
	}
	return VerifyDIJ(v, vs, vt, p)
}

func (dijImpl) Patch(b *UpdateBatch, p Provider) (Provider, *PatchStats, error) {
	dp, err := providerAs[*DIJProvider](DIJ, p)
	if err != nil {
		return nil, nil, err
	}
	np, st, err := b.PatchDIJ(dp)
	if err != nil {
		return nil, nil, err
	}
	return np, st, nil
}

func (dijImpl) SnapshotKind() uint32 { return snapKindDIJ }

// StreamSnapshot encodes: rootSig bytes | network tree.
func (dijImpl) StreamSnapshot(sw *snapshot.Writer, p Provider) error {
	dp, err := providerAs[*DIJProvider](DIJ, p)
	if err != nil {
		return err
	}
	size := snapBytesSize(dp.rootSig) + snapTreeSize(dp.ads.tree)
	return streamSection(sw, snapKindDIJ, size, func(s *snapStream) {
		s.bytes(dp.rootSig)
		s.tree(dp.ads.tree)
	})
}

func (dijImpl) DecodeSnapshot(r *snapshot.SectionReader, env *SnapshotEnv) (Provider, error) {
	c := newSnapCursor(r)
	rootSig := c.bytes()
	tree := c.tree()
	if err := c.finish("DIJ"); err != nil {
		return nil, err
	}
	ads, err := env.rehydrateADS(tree, nil)
	if err != nil {
		return nil, err
	}
	return &DIJProvider{g: env.Graph, view: env.View, ads: ads, rootSig: rootSig}, nil
}
