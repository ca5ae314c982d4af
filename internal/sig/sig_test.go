package sig

import (
	"bytes"
	"math/rand"
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
