package mht

import (
	"bytes"
	"testing"

	"github.com/authhints/spv/internal/digest"
)

// FuzzDecodeProof drives the integrity-proof wire decoder with mutated
// inputs: no panics, and every accepted input must re-encode
// byte-identically on the consumed prefix (the encoding is canonical).
func FuzzDecodeProof(f *testing.F) {
	// Seed with real proofs over a few tree shapes.
	for _, n := range []int{1, 5, 33} {
		var leaves []byte
		for i := 0; i < n; i++ {
			leaves = digest.SHA1.AppendSum(leaves, []byte{byte(i)})
		}
		t, err := Build(digest.SHA1, 3, leaves)
		if err != nil {
			f.Fatal(err)
		}
		p, err := t.Prove([]int{0, n / 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := DecodeProof(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d bytes consumed of %d", n, len(data))
		}
		re := p.AppendBinary(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not identity: %d in, %d out", n, len(re))
		}
	})
}
