// Package sig provides the data owner's public-key signature primitive
// (paper §II-A): RSA signatures over ADS root digests. The owner signs each
// Merkle root once at outsourcing time; clients verify roots against the
// owner's public key on every query.
package sig

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"io"
	"sync/atomic"
)

// DefaultBits matches the 2010-era RSA modulus used for the paper's
// proof-size accounting (128-byte signatures).
const DefaultBits = 1024

// Signer holds the data owner's private key.
type Signer struct {
	key *rsa.PrivateKey
}

// Verifier holds the owner's public key, distributed to clients, and a memo
// of what it last accepted: every proof of an epoch carries the same few
// signed roots, so a client's steady state is a lookup, not an
// exponentiation.
type Verifier struct {
	key *rsa.PublicKey
	// memo holds (sha256(parts), signature) pairs a full check accepted,
	// replaced round-robin. A deployment signs at most seven things an
	// epoch (DIJ and LDM one root each, FULL and HYP two, the certificate),
	// so eight slots keep them all. Only an accepting full check stores.
	memo [8]atomic.Pointer[accepted]
	next atomic.Uint32
}

type accepted struct {
	sum [sha256.Size]byte
	sig []byte
}

// GenerateKey creates an owner key pair with the given modulus size. The
// randomness source is injectable for deterministic tests.
func GenerateKey(random io.Reader, bits int) (*Signer, error) {
	if bits < 1024 {
		return nil, fmt.Errorf("sig: modulus %d too small (min 1024)", bits)
	}
	key, err := rsa.GenerateKey(random, bits)
	if err != nil {
		return nil, fmt.Errorf("sig: generating key: %w", err)
	}
	return &Signer{key: key}, nil
}

// Verifier returns the verification half of the key pair.
func (s *Signer) Verifier() *Verifier { return &Verifier{key: &s.key.PublicKey} }

// SignatureSize returns the signature length in bytes (the modulus size).
func (s *Signer) SignatureSize() int { return s.key.Size() }

// Sign signs the concatenation of parts (context bytes, then an ADS root
// digest or a certificate wire) without materializing it. The message is
// hashed with SHA-256 before signing, per PKCS#1 v1.5.
func (s *Signer) Sign(parts ...[]byte) ([]byte, error) {
	h := sum(parts)
	sigBytes, err := rsa.SignPKCS1v15(rand.Reader, s.key, crypto.SHA256, h[:])
	if err != nil {
		return nil, fmt.Errorf("sig: signing: %w", err)
	}
	return sigBytes, nil
}

// SignatureSize returns the signature length in bytes.
func (v *Verifier) SignatureSize() int { return v.key.Size() }

// Equal reports whether two verifiers hold the same public key — the check
// that binds a persisted owner private key to the verifier embedded in a
// snapshot before updates are allowed to re-sign its roots.
func (v *Verifier) Equal(o *Verifier) bool {
	return v != nil && o != nil && v.key.Equal(o.key)
}

// Verify checks a signature over msg. A nil error means the signature is
// authentic.
func (v *Verifier) Verify(msg, signature []byte) error {
	return v.VerifyParts(signature, msg)
}

// VerifyParts is Verify over the concatenation of parts, hashed where they
// lie — the counterpart of a multi-part Sign. A pair byte-equal to one the
// full check accepted before is accepted from the memo; anything else takes
// the full check.
func (v *Verifier) VerifyParts(signature []byte, parts ...[]byte) error {
	h := sum(parts)
	for i := range v.memo {
		if a := v.memo[i].Load(); a != nil && a.sum == h && bytes.Equal(a.sig, signature) {
			return nil
		}
	}
	if err := rsa.VerifyPKCS1v15(v.key, crypto.SHA256, h[:], signature); err != nil {
		return fmt.Errorf("sig: invalid signature: %w", err)
	}
	slot := v.next.Add(1) % uint32(len(v.memo))
	v.memo[slot].Store(&accepted{sum: h, sig: bytes.Clone(signature)})
	return nil
}

// sum is SHA-256 over the concatenation of parts. One part — every
// client-side root check — hashes on the stack, allocating nothing.
func sum(parts [][]byte) (h [sha256.Size]byte) {
	if len(parts) == 1 {
		return sha256.Sum256(parts[0])
	}
	d := sha256.New()
	for _, p := range parts {
		d.Write(p)
	}
	d.Sum(h[:0])
	return h
}

// Key persistence: the data owner's private key and the clients' public key
// travel as PEM so deployments can split the three parties across
// processes and machines.

const (
	privatePEMType = "SPV OWNER PRIVATE KEY"
	publicPEMType  = "SPV OWNER PUBLIC KEY"
)

// MarshalPEM encodes the private key as PKCS#1 PEM.
func (s *Signer) MarshalPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{
		Type:  privatePEMType,
		Bytes: x509.MarshalPKCS1PrivateKey(s.key),
	})
}

// ParseSignerPEM decodes a private key written by MarshalPEM.
func ParseSignerPEM(data []byte) (*Signer, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != privatePEMType {
		return nil, fmt.Errorf("sig: not an owner private key PEM")
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("sig: parsing private key: %w", err)
	}
	if key.Size()*8 < 1024 {
		return nil, fmt.Errorf("sig: modulus %d too small", key.Size()*8)
	}
	return &Signer{key: key}, nil
}

// MarshalPEM encodes the public key as PKIX PEM.
func (v *Verifier) MarshalPEM() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(v.key)
	if err != nil {
		return nil, fmt.Errorf("sig: marshaling public key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: publicPEMType, Bytes: der}), nil
}

// ParseVerifierPEM decodes a public key written by Verifier.MarshalPEM.
func ParseVerifierPEM(data []byte) (*Verifier, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != publicPEMType {
		return nil, fmt.Errorf("sig: not an owner public key PEM")
	}
	pub, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("sig: parsing public key: %w", err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("sig: public key is %T, want RSA", pub)
	}
	return &Verifier{key: rsaPub}, nil
}
