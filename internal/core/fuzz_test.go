package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"github.com/authhints/spv/internal/digest"
	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/hints/landmark"
	"github.com/authhints/spv/internal/hiti"
	"github.com/authhints/spv/internal/mbt"
	"github.com/authhints/spv/internal/mht"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sig"
	"github.com/authhints/spv/internal/sp"
	"github.com/authhints/spv/internal/workload"
)

// The seed wires below are structurally valid proof encodings for the fuzz
// corpus. The decoder checks wire structure, not cryptography, so the
// tuples/digests/signatures can be synthetic — which keeps fuzz-worker
// startup free of RSA key generation.

func seedDIJWire() [][]byte {
	tuple := func(id graph.NodeID, adj ...graph.Edge) []byte {
		return graph.Tuple{ID: id, X: float64(id), Y: 2, Adj: adj}.AppendBinary(nil)
	}
	digest20 := bytes.Repeat([]byte{7}, 20)
	prs := []*DIJProof{
		{proofFrame{graph.Path{0, 1, 2}, 3.5,
			[]tupleRecord{{Pos: 0, Bytes: tuple(0, graph.Edge{To: 1, W: 2})}, {Pos: 3, Bytes: tuple(1)}},
			&mht.Proof{Alg: digest.SHA1, Fanout: 4, NumLeaves: 9,
				Entries: []mht.Entry{{Level: 0, Index: 1, Digest: digest20}, {Level: 1, Index: 2, Digest: digest20}}},
		}, []byte("signature-bytes")},
		{proofFrame{graph.Path{5, 6}, 1, []tupleRecord{{Pos: 1, Bytes: tuple(5)}},
			&mht.Proof{Alg: digest.SHA256, Fanout: 2, NumLeaves: 2}}, nil},
	}
	var wires [][]byte
	for _, pr := range prs {
		wires = append(wires, pr.AppendBinary(nil))
	}
	return wires
}

func seedLDMWire() [][]byte {
	tuple := graph.Tuple{ID: 4, X: 1, Y: 1, Adj: []graph.Edge{{To: 7, W: 1.5}}, Extra: []byte{1, 0, 3}}.AppendBinary(nil)
	pr := &LDMProof{
		proofFrame: proofFrame{graph.Path{4, 7}, 1.5, []tupleRecord{{Pos: 2, Bytes: tuple}},
			&mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 8}},
		Params:  landmark.Params{C: 2, Bits: 8, Lambda: 0.25},
		RootSig: []byte("ldm-signature"),
	}
	return [][]byte{pr.AppendBinary(nil)}
}

// seedHYPWire covers the optional hyper-edge block, present and absent.
func seedHYPWire() [][]byte {
	digest20 := bytes.Repeat([]byte{9}, 20)
	tuple := func(id graph.NodeID) []byte {
		t := graph.Tuple{ID: id, X: 1, Y: 2, Extra: hyperExtra(3, id == 1)}
		return t.AppendBinary(nil)
	}
	withHyper := &HYPProof{
		proofFrame: proofFrame{graph.Path{0, 1, 2}, 4.25,
			[]tupleRecord{{Pos: 0, Bytes: tuple(0)}, {Pos: 2, Bytes: tuple(1)}},
			&mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 4,
				Entries: []mht.Entry{{Level: 0, Index: 1, Digest: digest20}}}},
		Hyper: &mbt.Proof{
			Entries: []mbt.ProvenEntry{{Entry: mbt.Entry{Key: 7, Value: 1.5}, Index: 0}},
			MHT:     &mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 1},
		},
		NetSig:  []byte("net-signature"),
		DistSig: []byte("dist-signature"),
	}
	without := &HYPProof{
		proofFrame: proofFrame{graph.Path{5, 6}, 1, []tupleRecord{{Pos: 1, Bytes: tuple(5)}},
			&mht.Proof{Alg: digest.SHA256, Fanout: 4, NumLeaves: 2}},
		NetSig: []byte("n"),
	}
	return [][]byte{withHyper.AppendBinary(nil), without.AppendBinary(nil)}
}

// hyperExtra fabricates the fixed-size HYP tuple annotation (cell id +
// border flag) without building a grid.
func hyperExtra(cell uint32, border bool) []byte {
	buf := make([]byte, 0, hiti.ExtraSize)
	buf = binary.BigEndian.AppendUint32(buf, cell)
	if border {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// seedFULLWire carries the forest VO beside the path tuples.
func seedFULLWire() [][]byte {
	digest20 := bytes.Repeat([]byte{5}, 20)
	tuple := func(id graph.NodeID, adj ...graph.Edge) []byte {
		return graph.Tuple{ID: id, X: 3, Y: 4, Adj: adj}.AppendBinary(nil)
	}
	pr := &FULLProof{
		proofFrame: proofFrame{graph.Path{0, 1}, 2.5,
			[]tupleRecord{{Pos: 0, Bytes: tuple(0, graph.Edge{To: 1, W: 2.5})}, {Pos: 1, Bytes: tuple(1)}},
			&mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 2}},
		DistVO: &mbt.ForestProof{
			Entry: mbt.Entry{Key: mbt.MakeKey(0, 1), Value: 2.5},
			Row:   &mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 2, Entries: []mht.Entry{{Level: 0, Index: 0, Digest: digest20}}},
			Top:   &mht.Proof{Alg: digest.SHA1, Fanout: 2, NumLeaves: 2, Entries: []mht.Entry{{Level: 0, Index: 1, Digest: digest20}}},
		},
		NetSig:  []byte("net-signature"),
		DistSig: []byte("dist-signature"),
	}
	return [][]byte{pr.AppendBinary(nil)}
}

// checkDecodeCanonical feeds data to m's decoder — the one decode path
// serve answers, spvquery verify and DecodeProofBatch travel. It must never
// panic, allocations must stay bounded by the bytes actually present even
// when tuple or entry counts lie, and any input it accepts must re-encode
// byte-identically through the erased Proof interface (the encoding is
// canonical: decode/encode is the identity on the consumed prefix).
func checkDecodeCanonical(t *testing.T, m Method, data []byte) {
	pr, n, err := DecodeProof(m, data)
	if err != nil {
		return
	}
	if n > len(data) {
		t.Fatalf("%s: decoder claims %d bytes consumed of %d", m, n, len(data))
	}
	if re := pr.AppendBinary(nil); !bytes.Equal(re, data[:n]) {
		t.Fatalf("%s: decode/encode not identity: %d in, %d out", m, n, len(re))
	}
}

// fuzzDecode runs checkDecodeCanonical for one method over its own corpus.
func fuzzDecode(f *testing.F, m Method, seeds ...[]byte) {
	for _, w := range seeds {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeCanonical(t, m, data) })
}

func FuzzDecodeDIJProof(f *testing.F) {
	fuzzDecode(f, DIJ, append(seedDIJWire(), []byte{}, []byte{0, 0, 0, 0})...)
}

func FuzzDecodeFULLProof(f *testing.F) {
	fuzzDecode(f, FULL, append(seedFULLWire(), []byte{}, bytes.Repeat([]byte{0xff}, 48))...)
}

func FuzzDecodeLDMProof(f *testing.F) {
	fuzzDecode(f, LDM, append([][]byte{{}, bytes.Repeat([]byte{1}, 64)}, seedLDMWire()...)...)
}

// FuzzDecodeHYPProof adds a lying tuple count over a near-empty body: the
// decoder must reject it without allocating for the claimed 2^31 records.
func FuzzDecodeHYPProof(f *testing.F) {
	lying := binary.BigEndian.AppendUint32(nil, 2) // path len 2
	lying = append(lying, make([]byte, 8+8)...)    // path + dist
	lying = binary.BigEndian.AppendUint32(lying, 1<<31-1)
	fuzzDecode(f, HYP, append(seedHYPWire(), []byte{}, lying)...)
}

// FuzzRegistryDecodeProof mixes every registered method's seed wires in one
// corpus, so a mutation may also reach a decoder under another method's
// bytes.
func FuzzRegistryDecodeProof(f *testing.F) {
	seeds := map[Method][][]byte{DIJ: seedDIJWire(), FULL: seedFULLWire(), LDM: seedLDMWire(), HYP: seedHYPWire()}
	ms := RegisteredMethods()
	for mi, m := range ms {
		for _, w := range seeds[m] {
			f.Add(mi, w)
		}
	}
	f.Fuzz(func(t *testing.T, mi int, data []byte) {
		checkDecodeCanonical(t, ms[uint(mi)%uint(len(ms))], data)
	})
}

// FuzzVerifyProof drives the whole client — registry decode, then
// VerifyProof under a fixed owner key — with mutated wires. The corpus is
// seeded with honest proofs of every method (under the golden key: signing is
// deterministic, so every fuzz worker regenerates the very same bytes). Whatever the
// input: no panic; memory bounded by the bytes presented, never by a count
// they claim; the verdict class the reference verifier (ref_test.go)
// reaches; and, the property the protocol exists for, nothing is accepted
// but the truth — an accepted path is a real path of the owner's graph
// between the queried endpoints, as short as any.
//
// (Acceptance cannot be pinned to byte-equality with a seed: a proof is a
// set, and the verifier accepts its records in any order.)
func FuzzVerifyProof(f *testing.F) {
	// A world small enough that a (coverage-instrumented) fuzz worker has
	// outsourced all four methods within a second of starting.
	g, err := netgen.Synthesize(60, 66, 5)
	if err != nil {
		f.Fatal(err)
	}
	keyPEM, err := os.ReadFile(goldenKeyFile)
	if err != nil {
		f.Fatal(err)
	}
	signer, err := sig.ParseSignerPEM(keyPEM)
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Landmarks, cfg.Cells = 4, 4
	owner, err := NewOwnerWithSigner(g, cfg, signer)
	if err != nil {
		f.Fatal(err)
	}
	qs, err := workload.Generate(g, 6, 2000, 3)
	if err != nil {
		f.Fatal(err)
	}
	v := owner.Verifier()
	ms := RegisteredMethods()
	for mi, m := range ms {
		p, err := owner.Outsource(m)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range qs {
			pr, err := p.QueryProof(q.S, q.T)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(mi, int32(q.S), int32(q.T), pr.AppendBinary(nil))
		}
	}
	f.Fuzz(func(t *testing.T, mi int, s, d int32, data []byte) {
		m := ms[uint(mi)%uint(len(ms))]
		vs, vt := graph.NodeID(s), graph.NodeID(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pr, _, err := DecodeProof(m, data)
		var verdict error
		if err == nil {
			verdict = VerifyProof(v, m, vs, vt, pr)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(256*len(data)+1<<20) {
			t.Fatalf("%s: %d input bytes made decode+verify allocate %d", m, len(data), grew)
		}
		if err != nil {
			return
		}
		if got, want := errClass(verdict), errClass(refVerify(v, vs, vt, pr)); got != want {
			t.Fatalf("%s (%d→%d): verdict %q, reference %q", m, vs, vt, got, want)
		}
		if verdict != nil {
			return
		}
		if vs < 0 || vt < 0 || int(vs) >= g.NumNodes() || int(vt) >= g.NumNodes() {
			t.Fatalf("%s: accepted endpoints (%d, %d) outside the graph", m, vs, vt)
		}
		path, dist := pr.Result()
		walked, err := path.DistIn(g)
		best, _ := sp.DijkstraTo(g, vs, vt)
		if err != nil || path.Source() != vs || path.Target() != vt || !distEqual(walked, dist) || !distEqual(dist, best) {
			t.Fatalf("%s (%d→%d): accepted path %v of claimed length %g (walks %g, err %v); shortest is %g",
				m, vs, vt, path, dist, walked, err, best)
		}
	})
}
