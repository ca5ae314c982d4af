package core

import (
	"fmt"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/snapshot"
)

// This file wires FULL (full.go) into the method registry: the erased
// Provider/Proof faces plus the snapshot section codec. The scheme logic
// itself stays in full.go.

// Method names the provider's verification method.
func (p *FULLProvider) Method() Method { return FULL }

// QueryProof answers one query behind the erased Provider face.
func (p *FULLProvider) QueryProof(vs, vt graph.NodeID) (Proof, error) {
	pr, err := p.Query(vs, vt)
	if err != nil {
		return nil, err
	}
	return pr, nil
}

func (p *FULLProvider) graphRef() *graph.Graph {
	if p == nil {
		return nil
	}
	return p.g
}

func (p *FULLProvider) adsRef() *networkADS {
	if p == nil {
		return nil
	}
	return p.ads
}

func (p *FULLProvider) viewRef() *graph.CSR {
	if p == nil {
		return nil
	}
	return p.view
}

// Result returns the reported path and its claimed distance.
func (pr *FULLProof) Result() (graph.Path, float64) { return pr.Path, pr.Dist }

// fullImpl is FULL's registry entry.
type fullImpl struct{}

func (fullImpl) Method() Method { return FULL }

func (fullImpl) Outsource(o *Owner) (Provider, error) {
	p, err := o.OutsourceFULL()
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (fullImpl) DecodeProof(buf []byte) (Proof, int, error) {
	pr, n, err := DecodeFULLProof(buf)
	if err != nil {
		return nil, 0, err
	}
	return pr, n, nil
}

func (fullImpl) VerifyProof(v SigVerifier, vs, vt graph.NodeID, pr Proof) error {
	p, err := proofAs[*FULLProof](FULL, pr)
	if err != nil {
		return err
	}
	return VerifyFULL(v, vs, vt, p)
}

func (fullImpl) Patch(b *UpdateBatch, p Provider) (Provider, *PatchStats, error) {
	fp, err := providerAs[*FULLProvider](FULL, p)
	if err != nil {
		return nil, nil, err
	}
	np, st, err := b.PatchFULL(fp)
	if err != nil {
		return nil, nil, err
	}
	return np, st, nil
}

func (fullImpl) SnapshotKind() uint32 { return snapKindFULL }

// StreamSnapshot encodes: netSig | distSig | network tree | top tree.
func (fullImpl) StreamSnapshot(sw *snapshot.Writer, p Provider) error {
	fp, err := providerAs[*FULLProvider](FULL, p)
	if err != nil {
		return err
	}
	size := snapBytesSize(fp.netSig) + snapBytesSize(fp.distSig) +
		snapTreeSize(fp.ads.tree) + snapTreeSize(fp.forest.Top())
	return streamSection(sw, snapKindFULL, size, func(s *snapStream) {
		s.bytes(fp.netSig)
		s.bytes(fp.distSig)
		s.tree(fp.ads.tree)
		s.tree(fp.forest.Top())
	})
}

func (fullImpl) DecodeSnapshot(r *snapshot.SectionReader, env *SnapshotEnv) (Provider, error) {
	c := newSnapCursor(r)
	netSig := c.bytes()
	distSig := c.bytes()
	netTree := c.tree()
	topTree := c.tree()
	if err := c.finish("FULL"); err != nil {
		return nil, err
	}
	ads, err := env.rehydrateADS(netTree, nil)
	if err != nil {
		return nil, err
	}
	forest, err := mbt.RehydrateForest(env.Graph.NumNodes(), topTree, fullRowFn(env.View))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &FULLProvider{g: env.Graph, view: env.View, ads: ads, forest: forest, netSig: netSig, distSig: distSig}, nil
}
