package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/authhints/spv/internal/graph"
	"github.com/authhints/spv/internal/netgen"
	"github.com/authhints/spv/internal/sp"
)

// TestProofWireRoundTrips serializes and re-parses every method's proof:
// the decoder consumes exactly the encoding, the decoded proof still
// verifies, no strict prefix decodes, and a trailing byte is left unread.
func TestProofWireRoundTrips(t *testing.T) {
	w := world(t)
	q := w.queries[0]
	v := w.owner.Verifier()
	for _, m := range RegisteredMethods() {
		t.Run(string(m), func(t *testing.T) {
			enc := prove[Proof](t, testProvider(t, w, m), q.S, q.T).AppendBinary(nil)
			dec, n, err := DecodeProof(m, enc)
			if err != nil || n != len(enc) {
				t.Fatalf("decode: %v (%d of %d bytes)", err, n, len(enc))
			}
			if err := VerifyProof(v, m, q.S, q.T, dec); err != nil {
				t.Errorf("decoded proof rejected: %v", err)
			}
			checkTruncations(t, m, enc)
		})
	}
}

// checkTruncations cuts the wire at every byte: no strict prefix may decode,
// each must fail as a malformed proof, and one trailing byte must be left
// unconsumed.
func checkTruncations(t *testing.T, m Method, enc []byte) {
	t.Helper()
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeProof(m, enc[:cut]); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("truncated proof (%d of %d bytes): got %v, want ErrMalformedProof", cut, len(enc), err)
		}
	}
	if _, n, err := DecodeProof(m, append(bytes.Clone(enc), 0)); err != nil || n != len(enc) {
		t.Errorf("proof with a trailing byte: consumed %d of %d (%v)", n, len(enc), err)
	}
}

// TestWireSizesMatchStats: the Stats() byte accounting must agree with the
// real encoding within the envelope overhead (method-independent framing).
func TestWireSizesMatchStats(t *testing.T) {
	w := world(t)
	q := w.queries[1]
	for _, m := range Methods() {
		p := prove[Proof](t, testProvider(t, w, m), q.S, q.T)
		s := p.Stats()
		want := s.TotalBytes() + s.Base
		if m == HYP {
			want++ // the hasHyper flag byte
		}
		if got := len(p.AppendBinary(nil)); got != want {
			t.Errorf("%s encoding %d bytes, Stats says %d", m, got, want)
		}
	}
}

// TestRandomGraphsAllMethodsProperty is the capstone property test: on
// random small road networks, for random queries, all four methods accept
// honest proofs and certify the oracle distance.
func TestRandomGraphsAllMethodsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many randomized worlds; full lane only")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(120)
		g, err := netgen.Synthesize(n, n+n/20, seed)
		if err != nil {
			t.Logf("seed %d: synthesize: %v", seed, err)
			return false
		}
		cfg := testConfig()
		cfg.Landmarks = 4 + rng.Intn(8)
		cfg.Cells = []int{4, 9, 16, 25}[rng.Intn(4)]
		cfg.Fanout = []int{2, 3, 4, 8}[rng.Intn(4)]
		owner, err := NewOwner(g, cfg)
		if err != nil {
			t.Logf("seed %d: owner: %v", seed, err)
			return false
		}
		w := outsourceWorld(t, g, owner)
		v := owner.Verifier()
		for trial := 0; trial < 4; trial++ {
			vs := graph.NodeID(rng.Intn(n))
			vt := graph.NodeID(rng.Intn(n))
			if vs == vt {
				continue
			}
			oracle, _ := sp.DijkstraTo(g, vs, vt)
			for _, m := range Methods() {
				pr, err := testProvider(t, w, m).QueryProof(vs, vt)
				if err == nil {
					err = VerifyProof(v, m, vs, vt, pr)
				}
				if err != nil {
					t.Logf("seed %d: %s %d→%d failed (%v)", seed, m, vs, vt, err)
					return false
				}
				if _, d := pr.Result(); !distEqual(d, oracle) {
					t.Logf("seed %d: %s %d→%d certified %v, oracle %v", seed, m, vs, vt, d, oracle)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	garbage := bytes.Repeat([]byte{0xAB, 0x00, 0xFF, 0x7C}, 64)
	for _, m := range Methods() {
		if _, _, err := DecodeProof(m, garbage); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("garbage decoded as %s proof: %v", m, err)
		}
	}
	r := wireReader{buf: []byte{0xff, 0xff, 0xff, 0xff}}
	if r.tuples(); !errors.Is(r.err, ErrMalformedProof) {
		t.Error("absurd tuple count decoded")
	}
	if r = (wireReader{}); r.path() != nil || !errors.Is(r.err, ErrMalformedProof) {
		t.Error("nil path decode not ErrMalformedProof")
	}
}
