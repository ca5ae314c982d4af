package core

import (
	"fmt"

	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/snapshot"
)

// This file is FULL's registry entry and snapshot section codec. The
// entry's Outsource, VerifyProof and DecodeProof are in full.go with the
// provider's QueryProof; its Patch is in update.go.

// Method names the provider's verification method.
func (p *FULLProvider) Method() Method { return FULL }

// fullImpl is FULL's registry entry.
type fullImpl struct{}

func (fullImpl) Method() Method { return FULL }

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
	forest, err := mbt.RehydrateForest(env.Graph.NumNodes(), topTree, fullRowFn(env.Graph))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &FULLProvider{providerBase: providerBase{env.Graph, ads}, forest: forest, netSig: netSig, distSig: distSig}, nil
}
