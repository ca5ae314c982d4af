package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/authhints/spv/internal/netgen"
)

// fuzzSnapshotSeed builds one small valid snapshot, once — RSA keygen and
// outsourcing are too slow to repeat per fuzz case.
var fuzzSnapshotSeed = sync.OnceValue(func() []byte {
	g, err := netgen.Synthesize(60, 80, 11)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks = 4
	cfg.Cells = 9
	owner, err := NewOwner(g, cfg)
	if err != nil {
		panic(err)
	}
	provs := []Provider{nil} // a nil provider is skipped
	for _, m := range []Method{DIJ, LDM, HYP} {
		p, err := owner.Outsource(m)
		if err != nil {
			panic(err)
		}
		provs = append(provs, p)
	}
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, provs...); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// FuzzReadProviderSet drives arbitrary bytes through the full snapshot
// load path: container framing, section decoding and structure
// rehydration must reject any malformed input with an error — truncated
// files, lying section lengths and flipped CRC bytes must never panic or
// allocate proportionally to a lying length field.
func FuzzReadProviderSet(f *testing.F) {
	valid := fuzzSnapshotSeed()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:40])
	// A CRC-flipped mutant and a length-lying mutant as structured seeds.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	lying := append([]byte(nil), valid...)
	lying[25] = 0x7F // high byte of the first section's length
	f.Add(lying)
	// HYP with full rows, intact and with a two-node parent cycle in its
	// first tree under a recomputed checksum: the trees load as they are
	// stored, and that one fold could not walk.
	owner, hyp := updatedHYPWorld(f, 60, 80)
	var buf bytes.Buffer
	if _, err := owner.WriteSnapshot(&buf, hyp); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	x, y := innerNeighbours(f, hyp.hyper, owner.Graph())
	f.Add(resealed(f, buf.Bytes(), snapKindHYP, func(p []byte) []byte {
		_, tree := hypSection(p)
		return cyclicTree(p, tree, owner.Graph(), hyp.ads.ord.Pos, x, y)
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadProviderSet(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Anything that loads must be a self-consistent, queryable set.
		if set.Graph == nil || set.Verifier == nil || len(set.Methods()) == 0 {
			t.Fatal("loaded set is incomplete")
		}
	})
}
