package core

import (
	"fmt"

	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/snapshot"
)

// This file is HYP's registry entry and snapshot section codec. The
// entry's Outsource, VerifyProof and DecodeProof are in hyp.go with the
// provider's QueryProof; its Patch is in update.go.

// Method names the provider's verification method.
func (p *HYPProvider) Method() Method { return HYP }

// hypImpl is HYP's registry entry.
type hypImpl struct{}

func (hypImpl) Method() Method { return HYP }

func (hypImpl) SnapshotKind() uint32 { return snapKindHYP }

// StreamSnapshot encodes what the provider keeps, as it keeps it:
//
//	netSig | distSig | full u8 | borders u32 | borders² × f64 W* |
//	[full: borders × |V| × u16 parent slots] | hasDist u8 [| dist tree] |
//	network tree
//
// The partition (grid, cells, borders) is re-derived at load. W* goes out
// row by row, border-indexed, in either form; a full row's tree follows
// as its parent slots in the network's leaf order (hiti.AppendTree). The
// distance tree is the levels it stores (mbt.Tree.Stored): its leaves and
// the levels below the cut are a function of W*, and no reader keeps them.
func (hypImpl) StreamSnapshot(sw *snapshot.Writer, p Provider) error {
	hp, err := providerAs[*HYPProvider](HYP, p)
	if err != nil {
		return err
	}
	hy := hp.hyper
	full, b, n := hy.HasFullRows(), uint64(hy.NumBorders()), uint64(hp.view.NumNodes())
	size := snapBytesSize(hp.netSig) + snapBytesSize(hp.distSig) + 1 + 4 + 8*b*b + 1 + snapTreeSize(hp.ads.tree)
	if full {
		size += 2 * b * n
	}
	if hp.distMBT != nil {
		size += snapTreeSize(hp.distMBT.Stored())
	}
	return streamSection(sw, snapKindHYP, size, func(s *snapStream) {
		s.bytes(hp.netSig)
		s.bytes(hp.distSig)
		if full {
			s.u8(1)
		} else {
			s.u8(0)
		}
		s.u32(uint32(b))
		var w []float64
		for i := range hy.NumBorders() {
			w = hy.AppendW(w[:0], i)
			s.f64s(w)
		}
		if full {
			var tree []uint16
			for i := range hy.NumBorders() {
				tree = hy.AppendTree(tree[:0], i)
				s.u16s(tree)
			}
		}
		if hp.distMBT != nil {
			s.u8(1)
			s.tree(hp.distMBT.Stored())
		} else {
			s.u8(0)
		}
		s.tree(hp.ads.tree)
	})
}

func (hypImpl) DecodeSnapshot(r *snapshot.SectionReader, env *SnapshotEnv) (Provider, error) {
	c := newSnapCursor(r)
	netSig := c.bytes()
	distSig := c.bytes()
	fullFlag := c.u8()
	numBorders := int(c.u32())
	if c.err == nil && fullFlag > 1 {
		c.fail("bad full-rows flag %d", fullFlag)
	}
	// The rows stream straight into the Hyper's own pages; a count the
	// partition refutes fails before any is read.
	var hyper *hiti.Hyper
	if c.err == nil {
		var err error
		hyper, err = hiti.Rehydrate(env.Graph, env.Cfg.Cells, env.Ord, fullFlag == 1, numBorders, c.f64s, c.u16s)
		if err != nil {
			c.fail("%v", err)
		}
	}
	hasDist := c.u8()
	if c.err == nil && hasDist > 1 {
		c.fail("bad dist-tree flag %d", hasDist)
	}
	var stored *mht.Tree
	if c.err == nil && hasDist == 1 {
		stored = c.tree()
	}
	netTree := c.tree()
	if err := c.finish("HYP"); err != nil {
		return nil, err
	}
	p2 := &HYPProvider{providerBase: providerBase{view: env.Graph}, hyper: hyper, netSig: netSig, distSig: distSig}
	var err error
	if hasDist == 1 {
		p2.distMBT, err = mbt.RehydrateTree(hyper.NumHyperEdges(), stored, hyper.AppendEntries)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	} else if hyper.NumBorders() > 0 {
		return nil, fmt.Errorf("%w: HYP section has %d borders but no distance tree", ErrBadSnapshot, hyper.NumBorders())
	}
	p2.ads, err = env.rehydrateADS(netTree, hyper.Extra)
	if err != nil {
		return nil, err
	}
	return p2, nil
}
