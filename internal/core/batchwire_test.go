package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/authhints/spv/internal/graph"
)

// TestProofBatchRoundTrip pins the batch container end to end: encode a
// realistic /batch answer set (with repeated queries), decode it, check
// canonical re-encoding, pointer sharing for repeats, the size contract
// against per-proof wires, and that the decoded batch verifies clean.
func TestProofBatchRoundTrip(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		items := batchItems(t, w, m, 6)
		distinct := len(items)
		var standalone int
		for _, it := range items {
			standalone += len(it.Proof.AppendBinary(nil))
		}
		// Framing costs a header and 13 bytes an item, no more; only a
		// repeated body makes a blob smaller than the proofs it carries.
		plain, err := AppendProofBatch(nil, m, items)
		if err != nil {
			t.Fatalf("%s encode: %v", m, err)
		}
		if over := len(plain) - standalone; over <= 0 || over > 16+13*distinct {
			t.Errorf("%s: %d distinct proofs framed cost %dB, want 1..%d", m, distinct, over, 16+13*distinct)
		}
		items = append(items, items[0], items[2]) // repeated queries → backrefs
		standalone += len(items[0].Proof.AppendBinary(nil)) + len(items[2].Proof.AppendBinary(nil))

		wire, err := AppendProofBatch(nil, m, items)
		if err != nil {
			t.Fatalf("%s encode: %v", m, err)
		}
		if len(wire) != len(plain)+2*batchItemMin {
			t.Errorf("%s: two repeats grew the blob by %dB, want two %d-byte backrefs", m, len(wire)-len(plain), batchItemMin)
		}
		if len(wire) >= standalone {
			t.Errorf("%s: blob with repeats %dB not smaller than %dB of standalone proofs", m, len(wire), standalone)
		}
		pb, n, err := DecodeProofBatch(wire)
		if err != nil {
			t.Fatalf("%s decode: %v", m, err)
		}
		if n != len(wire) {
			t.Fatalf("%s decode consumed %d of %d bytes", m, n, len(wire))
		}
		if pb.Method != m || pb.Len() != len(items) {
			t.Fatalf("%s decoded batch: method %s, %d items (want %d)", m, pb.Method, pb.Len(), len(items))
		}
		got := pb.Items()
		if got[distinct].Proof != got[0].Proof || got[distinct+1].Proof != got[2].Proof {
			t.Errorf("%s: backref items do not share their body's proof", m)
		}
		re, err := pb.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s re-encode: %v", m, err)
		}
		if !bytes.Equal(re, wire) {
			t.Errorf("%s: decode/encode not identity (%d in, %d out)", m, len(wire), len(re))
		}
		for i, err := range VerifyBatch(v, m, got) {
			if err != nil {
				t.Errorf("%s decoded item %d: %v", m, i, err)
			}
		}
	}
}

// batchHeaderLen is the container's fixed prefix for method m: magic,
// length-prefixed method, item count.
func batchHeaderLen(m Method) int { return len(proofBatchMagic) + 4 + len(m) + 4 }

// TestDecodeProofBatchRejects spot-checks structural rejection paths the
// fuzz target reaches only probabilistically.
func TestDecodeProofBatchRejects(t *testing.T) {
	w := world(t)
	items := batchItems(t, w, DIJ, 2)
	wire, err := AppendProofBatch(nil, DIJ, items)
	if err != nil {
		t.Fatal(err)
	}
	hdr := batchHeaderLen(DIJ)
	body0 := items[0].Proof.AppendBinary(nil)
	// frame hand-builds a blob from raw item bytes, so cases can state what
	// the encoder refuses to.
	frame := func(count uint32, rawItems ...[]byte) []byte {
		b := append([]byte(proofBatchMagic), 0, 0, 0, 3, 'D', 'I', 'J')
		b = binary.BigEndian.AppendUint32(b, count)
		return append(b, bytes.Join(rawItems, nil)...)
	}
	item := func(vs, vt graph.NodeID, tag byte, rest []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(vs))
		b = binary.BigEndian.AppendUint32(b, uint32(vt))
		return append(append(b, tag), rest...)
	}
	ref := func(j uint32) []byte { return binary.BigEndian.AppendUint32(nil, j) }
	vs, vt := items[0].VS, items[0].VT
	first := item(vs, vt, batchItemBody, appendBytes(nil, body0))
	if _, _, err := DecodeProofBatch(frame(2, first, item(vs, vt, batchItemBackref, ref(0)))); err != nil {
		t.Fatalf("hand-framed control blob rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("SPBX"), wire[4:]...),
		"retired magic":  append([]byte("SPB1"), wire[4:]...),
		"truncated":      wire[:len(wire)/2],
		"unknown method": append([]byte(proofBatchMagic+"\x00\x00\x00\x04NOPE"), wire[hdr:]...),
		"lying count":    frame(3, first),
		"bad tag":        frame(1, item(vs, vt, 2, appendBytes(nil, body0))),
		"wrong source":   frame(1, item(vs+1, vt, batchItemBody, appendBytes(nil, body0))),
		"wrong target":   frame(1, item(vs, vt+1, batchItemBody, appendBytes(nil, body0))),
		"swapped ends":   frame(1, item(vt, vs, batchItemBody, appendBytes(nil, body0))),
		"backref ends": frame(2, first,
			item(vs, vt+1, batchItemBackref, ref(0))),
		"backref forward": frame(2, item(vs, vt, batchItemBackref, ref(1)), first),
		"backref to self": frame(2, first, item(vs, vt, batchItemBackref, ref(1))),
		"backref to backref": frame(3, first,
			item(vs, vt, batchItemBackref, ref(0)),
			item(vs, vt, batchItemBackref, ref(1))),
		"duplicate body": frame(2, first, first),
		"trailing bytes": frame(1, item(vs, vt, batchItemBody, appendBytes(nil, append(bytes.Clone(body0), 0)))),
		"short body":     frame(1, item(vs, vt, batchItemBody, appendBytes(nil, body0[:len(body0)-1]))),
	}
	for name, buf := range cases {
		if _, _, err := DecodeProofBatch(buf); err == nil {
			t.Errorf("%s: decoder accepted", name)
		}
	}
	// The encoder refuses what the decoder would: a nil proof, endpoints
	// that are not the proof's, an unknown method.
	if _, err := AppendProofBatch(nil, DIJ, []BatchItem{{}}); err == nil {
		t.Error("encoder accepted a nil proof")
	}
	if _, err := AppendProofBatch(nil, DIJ, []BatchItem{{VS: vt, VT: vs, Proof: items[0].Proof}}); err == nil {
		t.Error("encoder accepted endpoints that are not the proof's")
	}
	if _, err := AppendProofBatch(nil, Method("NOPE"), nil); err == nil {
		t.Error("encoder accepted an unknown method")
	}
}

// merkleProofOffsets returns where each Merkle proof (mht.Proof) starts in
// pr's standalone wire, in wire order.
func merkleProofOffsets(t *testing.T, pr Proof) []int {
	switch p := pr.(type) {
	case *DIJProof:
		return []int{pathWireSize(p.Path) + 8 + tupleBlockSize(p.Tuples)}
	case *LDMProof:
		return []int{pathWireSize(p.Path) + 8 + 16 + tupleBlockSize(p.Tuples)}
	case *FULLProof:
		row := pathWireSize(p.Path) + 8 + 16 // forest entry: key, value
		top := row + p.DistVO.Row.EncodedSize()
		return []int{row, top, top + p.DistVO.Top.EncodedSize() + tupleBlockSize(p.Tuples)}
	case *HYPProof:
		net := pathWireSize(p.Path) + 8 + tupleBlockSize(p.Tuples)
		if p.Hyper == nil {
			return []int{net}
		}
		return []int{net, net + p.MHT.EncodedSize() + 1 + p.Hyper.EncodedSize() - p.Hyper.MHT.EncodedSize()}
	}
	t.Fatalf("no layout for %T", pr)
	return nil
}

// TestProofBatchTamperSweep flips bytes across whole blobs and plays the
// client: endpoints come from the request, never from the blob. Every byte
// of the header and of each item's framing is flipped, and in each body
// every 7th byte, all eight of its dist field and the four of every Merkle
// proof's leaf count. A mutant must fail to decode or fail VerifyBatch. Two
// kinds of flip survive, both inside a proof body and both as old as the
// single-proof wire — the container adds none:
//
//   - the low-order bytes of dist that leave it within distTolerance of
//     the original: exactly those must survive;
//   - the low-order byte of a Merkle proof's declared leaf count, which is
//     a shape hint, not signed: when the proven leaves sit away from the
//     tree's right edge the same hashes fold to the same signed root, so
//     the mutant proves the same facts. It may survive; the three bytes
//     above it may not.
//
// Anything else surviving fails the test, so the list cannot grow silently.
func TestProofBatchTamperSweep(t *testing.T) {
	w := world(t)
	v := w.owner.Verifier()
	for _, m := range Methods() {
		pool := batchItems(t, w, m, 2)
		for _, req := range [][]BatchItem{pool, {pool[0], pool[1], pool[0]}} {
			blob, err := AppendProofBatch(nil, m, req)
			if err != nil {
				t.Fatal(err)
			}
			survives := func(mut []byte) bool {
				pb, n, err := DecodeProofBatch(mut)
				if err != nil || n != len(mut) || pb.Method != m || pb.Len() != len(req) {
					return false
				}
				asked := make([]BatchItem, len(req))
				for i, it := range pb.Items() {
					asked[i] = BatchItem{VS: req[i].VS, VT: req[i].VT, Proof: it.Proof}
				}
				for _, err := range VerifyBatch(v, m, asked) {
					if err != nil {
						return false
					}
				}
				return true
			}
			if !survives(blob) {
				t.Fatalf("%s: untouched %d-item blob rejected", m, len(req))
			}
			// Walk the layout: the offsets to flip, those that must survive
			// (distLow) and those that may (shapeLow).
			var sweep, distLow []int
			shapeLow := make(map[int]bool)
			span := func(from, n, step int) {
				for k := 0; k < n; k += step {
					sweep = append(sweep, from+k)
				}
			}
			span(0, batchHeaderLen(m), 1)
			off := batchHeaderLen(m)
			for i, it := range req {
				span(off, batchItemMin, 1)
				off += batchItemMin
				if i == 2 { // the repeat: a backref, no body
					continue
				}
				path, dist := it.Proof.Result()
				size := len(it.Proof.AppendBinary(nil))
				span(off, size, 7)
				distAt := off + pathWireSize(path)
				span(distAt, 8, 1)
				for k := 0; k < 8; k++ {
					bits := math.Float64bits(dist) ^ 0xFF<<(8*(7-k))
					if distEqual(math.Float64frombits(bits), dist) {
						distLow = append(distLow, distAt+k)
					}
				}
				if n := len(distLow); n < 2 || distLow[n-2] < distAt+5 {
					t.Fatalf("%s: dist bytes under distTolerance are %v (dist at %d), want the last two or three", m, distLow, distAt)
				}
				for _, at := range merkleProofOffsets(t, it.Proof) {
					span(off+at+3, 4, 1) // alg u8, fanout u16, then the leaf count
					shapeLow[off+at+6] = true
				}
				off += size
			}
			if off != len(blob) {
				t.Fatalf("%s: layout walk ends at %d of %d bytes", m, off, len(blob))
			}
			slices.Sort(sweep)
			sweep = slices.Compact(sweep)
			var got []int
			shapeSurvivors := 0
			for _, at := range sweep {
				mut := bytes.Clone(blob)
				mut[at] ^= 0xFF
				switch {
				case !survives(mut):
				case shapeLow[at]:
					shapeSurvivors++
				default:
					got = append(got, at)
				}
			}
			if !slices.Equal(got, distLow) {
				t.Errorf("%s %d-item blob (%dB, %d mutants): survivors at %v, want exactly the dist low bytes %v",
					m, len(req), len(blob), len(sweep), got, distLow)
			}
			t.Logf("%s %d-item blob: %d mutants, %d dist and %d of %d leaf-count low bytes survive",
				m, len(req), len(sweep), len(got), shapeSurvivors, len(shapeLow))
		}
	}
}

// seedBatchWire builds structurally valid batch encodings from synthetic
// proofs (no RSA keys — decoder checks wire structure, not cryptography),
// each item's endpoints taken from its proof's own path.
func seedBatchWire() [][]byte {
	var wires [][]byte
	item := func(pr Proof) BatchItem {
		path, _ := pr.Result()
		return BatchItem{VS: path[0], VT: path[len(path)-1], Proof: pr}
	}

	var dijItems []BatchItem
	for _, wb := range seedDIJWire() {
		pr, _, err := DecodeProof(DIJ, wb)
		if err != nil {
			panic(err)
		}
		dijItems = append(dijItems, item(pr))
	}
	dijItems = append(dijItems, dijItems[0]) // backref
	wb, err := AppendProofBatch(nil, DIJ, dijItems)
	if err != nil {
		panic(err)
	}
	wires = append(wires, wb)

	for _, hb := range seedHYPWire() {
		pr, _, err := DecodeProof(HYP, hb)
		if err != nil {
			panic(err)
		}
		wb, err := AppendProofBatch(nil, HYP, []BatchItem{item(pr), item(pr)})
		if err != nil {
			panic(err)
		}
		wires = append(wires, wb)
	}
	return wires
}

// FuzzDecodeProofBatch drives the batch container decoder with mutated
// inputs: it must never panic, allocations must stay bounded by the bytes
// actually present even when the item count lies, and any accepted input
// must re-encode byte-identically (bodies are canonical proof wires,
// repeated bodies are backrefs, endpoints are the paths').
func FuzzDecodeProofBatch(f *testing.F) {
	for _, w := range seedBatchWire() {
		f.Add(w)
	}
	f.Add([]byte{})
	f.Add([]byte(proofBatchMagic))
	// Lying item count over a near-empty body: the decoder must reject
	// without allocating for the claimed 2^20 entries.
	lying := append([]byte(proofBatchMagic), 0, 0, 0, 3)
	lying = append(lying, "DIJ"...)
	lying = binary.BigEndian.AppendUint32(lying, 1<<20)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		pb, n, err := DecodeProofBatch(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d bytes consumed of %d", n, len(data))
		}
		re, err := pb.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not identity: %d in, %d out", n, len(re))
		}
	})
}
