package core

import (
	"fmt"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
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

// StreamSnapshot encodes: netSig | distSig | fullRows u8 | rows u32 |
// rowLen u32 | rows × rowLen × f64 | hasDist u8 [| dist tree] | network
// tree. The partition (grid, cells, borders) is re-derived at load; the
// materialized W* rows are the stored truth — and HYP's dominant payload,
// hence streamed — and the hyper-edge entries are a function of them. The
// distance tree is written whole, its lower levels re-hashed from the
// entries, so the file is what a tree holding every level wrote; a reader
// keeps the levels from mbt.Cut up and nothing below them can reach a
// proof.
func (hypImpl) StreamSnapshot(sw *snapshot.Writer, p Provider) error {
	hp, err := providerAs[*HYPProvider](HYP, p)
	if err != nil {
		return err
	}
	hy := hp.hyper
	full, numRows, rowLen := hy.HasFullRows(), hy.NumBorders(), 0
	if numRows > 0 {
		rowLen = numRows
		if full {
			rowLen = hp.view.NumNodes()
		}
	}
	size := snapBytesSize(hp.netSig) + snapBytesSize(hp.distSig) + 1 + 4 + 4 + 1 +
		8*uint64(numRows)*uint64(rowLen) + snapTreeSize(hp.ads.tree)
	if hp.distMBT != nil {
		size += snapTreeSize(hp.distMBT)
	}
	return streamSection(sw, snapKindHYP, size, func(s *snapStream) {
		s.bytes(hp.netSig)
		s.bytes(hp.distSig)
		if full {
			s.u8(1)
		} else {
			s.u8(0)
		}
		s.u32(uint32(numRows))
		s.u32(uint32(rowLen))
		var row []float64
		for i := 0; i < numRows; i++ {
			row = hy.AppendRow(row[:0], i)
			for _, d := range row {
				s.f64(d)
			}
		}
		if hp.distMBT != nil {
			s.u8(1)
			s.tree(hp.distMBT)
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
	numRows := int(c.u32())
	rowLen := int(c.u32())
	if c.err == nil && fullFlag > 1 {
		c.fail("bad full-rows flag %d", fullFlag)
	}
	if c.err == nil && rowLen == 0 && numRows > 0 {
		// Zero-length rows never occur (wb rows are B-long with B > 0, full
		// rows |V|-long with |V| ≥ 2); a lying count must not allocate.
		c.fail("%d hyper rows of length 0", numRows)
	}
	// The rows stream straight into the Hyper's own storage (full rows page
	// by page); a count the partition refutes fails before any is read.
	var hyper *hiti.Hyper
	if c.err == nil {
		var err error
		hyper, err = hiti.Rehydrate(env.Graph, env.Cfg.Cells, env.Ord, fullFlag == 1, numRows, rowLen, c.f64s)
		if err != nil {
			c.fail("%v", err)
		}
	}
	hasDist := c.u8()
	if c.err == nil && hasDist > 1 {
		c.fail("bad dist-tree flag %d", hasDist)
	}
	var alg digest.Alg
	var fanout int
	var widths []int
	var stored [][]byte
	if c.err == nil && hasDist == 1 {
		// The distance tree keeps only its levels from mbt.Cut up; the file
		// holds every level, and the lower ones are read past.
		alg, fanout, widths, stored = c.treeLevels(mbt.Cut)
	}
	netTree := c.tree()
	if err := c.finish("HYP"); err != nil {
		return nil, err
	}
	p2 := &HYPProvider{providerBase: providerBase{view: env.Graph}, hyper: hyper, netSig: netSig, distSig: distSig}
	var err error
	if hasDist == 1 {
		p2.distMBT, err = mbt.RehydrateTree(alg, fanout, hyper.NumHyperEdges(), widths, stored, hyper.AppendEntries)
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
