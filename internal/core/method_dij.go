package core

import (
	"github.com/authhints/spv/internal/snapshot"
)

// This file is DIJ's registry entry and snapshot section codec. The
// entry's Outsource, VerifyProof and DecodeProof are in dij.go with the
// provider's QueryProof; its Patch is in update.go.

// Method names the provider's verification method.
func (p *DIJProvider) Method() Method { return DIJ }

// dijImpl is DIJ's registry entry.
type dijImpl struct{}

func (dijImpl) Method() Method { return DIJ }

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
	return &DIJProvider{providerBase{env.Graph, ads}, rootSig}, nil
}
