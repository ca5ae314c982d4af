package sig

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// testRand is a deterministic randomness source so key generation in tests
// is fast and reproducible.
func testRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestSignVerifyRoundTrip(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	msg := []byte("merkle root digest bytes")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigBytes) != s.SignatureSize() || len(sigBytes) != v.SignatureSize() {
		t.Errorf("signature %d bytes, want %d", len(sigBytes), s.SignatureSize())
	}
	if s.SignatureSize() != DefaultBits/8 {
		t.Errorf("SignatureSize = %d, want %d", s.SignatureSize(), DefaultBits/8)
	}
	if err := v.Verify(msg, sigBytes); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
}

// TestPartsAreTheirConcatenation pins the multi-part forms to the
// one-message forms: signing or verifying parts is signing or verifying
// their concatenation, however it is split.
func TestPartsAreTheirConcatenation(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	ctx, root := []byte("spv/CTX/v1\x00"), []byte("merkle root digest bytes")
	whole, err := s.Sign(append(append([]byte(nil), ctx...), root...))
	if err != nil {
		t.Fatal(err)
	}
	split, err := s.Sign(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, split) {
		t.Error("Sign(ctx, root) differs from Sign(ctx‖root)")
	}
	if err := v.VerifyParts(whole, ctx[:3], ctx[3:], nil, root); err != nil {
		t.Errorf("valid signature rejected over a different split: %v", err)
	}
	if err := v.VerifyParts(whole, root, ctx); err == nil {
		t.Error("signature accepted over reordered parts")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	msg := []byte("root")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}

	if err := v.Verify([]byte("other root"), sigBytes); err == nil {
		t.Error("signature verified against different message")
	}
	bad := append([]byte(nil), sigBytes...)
	bad[0] ^= 0x01
	if err := v.Verify(msg, bad); err == nil {
		t.Error("corrupted signature verified")
	}
	if err := v.Verify(msg, nil); err == nil {
		t.Error("nil signature verified")
	}
}

func TestVerifyRejectsForeignKey(t *testing.T) {
	s1, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateKey(rand.New(rand.NewSource(2)), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("root")
	sigBytes, err := s2.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Verifier().Verify(msg, sigBytes); err == nil {
		t.Error("signature from another owner verified")
	}
}

func TestGenerateKeyRejectsWeakModulus(t *testing.T) {
	if _, err := GenerateKey(testRand(), 512); err == nil {
		t.Error("512-bit modulus accepted")
	}
}

func TestKeyPEMRoundTrip(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("root digest")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := ParseSignerPEM(s.MarshalPEM())
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := s2.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verifier().Verify(msg, sig2); err != nil {
		t.Errorf("signature from round-tripped signer rejected: %v", err)
	}

	pubPEM, err := s.Verifier().MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseVerifierPEM(pubPEM)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Verify(msg, sigBytes); err != nil {
		t.Errorf("round-tripped verifier rejected valid signature: %v", err)
	}
}

func TestKeyPEMRejectsGarbage(t *testing.T) {
	if _, err := ParseSignerPEM([]byte("not pem")); err == nil {
		t.Error("garbage private PEM parsed")
	}
	if _, err := ParseVerifierPEM([]byte("not pem")); err == nil {
		t.Error("garbage public PEM parsed")
	}
	s, _ := GenerateKey(testRand(), DefaultBits)
	pub, _ := s.Verifier().MarshalPEM()
	if _, err := ParseSignerPEM(pub); err == nil {
		t.Error("public PEM parsed as private key")
	}
	if _, err := ParseVerifierPEM(s.MarshalPEM()); err == nil {
		t.Error("private PEM parsed as public key")
	}
}

// memoEntries counts the memo slots holding a pair: how many accepting full
// checks v has stored (up to the slot count).
func memoEntries(v *Verifier) (n int) {
	for i := range v.memo {
		if v.memo[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestMemoAcceptsOnlyWhatTheFullCheckAccepted: after a hit, a flipped root
// byte, context byte or signature byte is rejected; a rejection stores
// nothing; and a repeat of an accepted pair skips the public-key operation
// (its allocations are crypto/rsa's, so a hit allocates nothing).
func TestMemoAcceptsOnlyWhatTheFullCheckAccepted(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	ctx, root := []byte("spv/CTX/v1\x00"), []byte("merkle root digest!!")
	sigBytes, err := s.Sign(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte) []byte { c := bytes.Clone(b); c[len(c)/2] ^= 0x01; return c }
	if err := v.VerifyParts(flip(sigBytes), ctx, root); err == nil {
		t.Fatal("flipped signature accepted before any hit")
	}
	if n := memoEntries(v); n != 0 {
		t.Fatalf("a rejected check stored %d memo entries", n)
	}
	for i := 0; i < 3; i++ {
		if err := v.VerifyParts(sigBytes, ctx, root); err != nil {
			t.Fatalf("valid signature rejected on check %d: %v", i, err)
		}
	}
	if n := memoEntries(v); n != 1 {
		t.Fatalf("three checks of one pair hold %d memo entries, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { v.VerifyParts(sigBytes, ctx, root) }); n != 0 {
		t.Errorf("a memo hit allocates %v times, want 0 (the full check ran)", n)
	}
	for name, err := range map[string]error{
		"root byte":      v.VerifyParts(sigBytes, ctx, flip(root)),
		"context byte":   v.VerifyParts(sigBytes, flip(ctx), root),
		"signature byte": v.VerifyParts(flip(sigBytes), ctx, root),
		"short sig":      v.VerifyParts(sigBytes[:len(sigBytes)-1], ctx, root),
	} {
		if err == nil {
			t.Errorf("flipped %s accepted after a hit", name)
		}
	}
	if err := v.VerifyParts(sigBytes, ctx, root); err != nil {
		t.Errorf("the accepted pair rejected after the flips: %v", err)
	}
	// The memo copies the signature it keeps: the caller's buffer changing
	// later (a decoded proof aliases its wire) must not change a verdict.
	sigBytes[0] ^= 0x01
	if err := v.VerifyParts(sigBytes, ctx, root); err == nil {
		t.Error("a signature edited in place after its hit was accepted")
	}
}

// TestMemoIsPerVerifier: a pair one Verifier accepted is nothing to another,
// whether it holds the same key or a foreign one.
func TestMemoIsPerVerifier(t *testing.T) {
	s1, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateKey(rand.New(rand.NewSource(2)), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("root")
	sigBytes, err := s1.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	v1, same, foreign := s1.Verifier(), s1.Verifier(), s2.Verifier()
	if err := v1.Verify(msg, sigBytes); err != nil {
		t.Fatal(err)
	}
	if memoEntries(same) != 0 || memoEntries(foreign) != 0 {
		t.Fatal("one Verifier's accepted pair appeared in another's memo")
	}
	if err := foreign.Verify(msg, sigBytes); err == nil {
		t.Error("another owner's Verifier accepted a pair the first had memoised")
	}
}

// TestMemoConcurrent hammers one Verifier from several goroutines with more
// distinct valid pairs than the memo has slots, plus forgeries of each: run
// under -race; every valid pair must verify and every forgery fail whatever
// the slots hold at that instant.
func TestMemoConcurrent(t *testing.T) {
	s, err := GenerateKey(testRand(), DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	msgs := make([][]byte, len(v.memo)+3)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte{'r', 'o', 'o', 't', byte(i)}
		if sigs[i], err = s.Sign(msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(msgs)
				if err := v.Verify(msgs[i], sigs[i]); err != nil {
					t.Errorf("valid pair %d rejected: %v", i, err)
				}
				if err := v.Verify(msgs[i], sigs[(i+1)%len(sigs)]); err == nil {
					t.Errorf("pair %d accepted under pair %d's signature", i, (i+1)%len(sigs))
				}
			}
		}(g)
	}
	wg.Wait()
}
