// Package digest provides the one-way hash primitive H(·) shared by every
// authenticated data structure in this repository (network Merkle tree,
// distance Merkle B-trees).
//
// The paper's cost model uses SHA-1 (20-byte digests, §II-A, 2010-era);
// SHA-256 is available for deployments that need a collision-resistant
// hash, at a 12-byte-per-digest proof-size premium.
package digest

import (
	"crypto/sha1"
	"crypto/sha256"
	"fmt"
	"hash"
)

// Alg selects the one-way hash function.
type Alg uint8

const (
	// SHA1 matches the paper's proof-size accounting (20-byte digests).
	SHA1 Alg = iota
	// SHA256 is the modern choice (32-byte digests).
	SHA256
)

// Size returns the digest length in bytes.
func (a Alg) Size() int {
	switch a {
	case SHA1:
		return sha1.Size
	case SHA256:
		return sha256.Size
	default:
		panic(fmt.Sprintf("digest: unknown algorithm %d", a))
	}
}

// New returns a fresh hash.Hash for the algorithm.
func (a Alg) New() hash.Hash {
	switch a {
	case SHA1:
		return sha1.New()
	case SHA256:
		return sha256.New()
	default:
		panic(fmt.Sprintf("digest: unknown algorithm %d", a))
	}
}

// String implements fmt.Stringer.
func (a Alg) String() string {
	switch a {
	case SHA1:
		return "sha1"
	case SHA256:
		return "sha256"
	default:
		return fmt.Sprintf("alg(%d)", a)
	}
}

// Sum returns H(p0 ◦ p1 ◦ ...), the digest of the concatenation of the
// parts, allocating the result.
func (a Alg) Sum(parts ...[]byte) []byte {
	h := a.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// AppendSum appends H(msg) to dst and returns the extended slice. The hash
// state lives on the stack, so a verifier hashing thousands of leaves and
// internal nodes per proof allocates nothing (New costs one hash.Hash per
// call). SHA-1 runs on the SHA-NI kernel where the CPU has one (sumSHA1);
// crypto/sha256 dispatches to the SHA extensions itself.
func (a Alg) AppendSum(dst, msg []byte) []byte {
	switch a {
	case SHA1:
		d := sumSHA1(msg)
		return append(dst, d[:]...)
	case SHA256:
		d := sha256.Sum256(msg)
		return append(dst, d[:]...)
	default:
		panic(fmt.Sprintf("digest: unknown algorithm %d", a))
	}
}

// Valid reports whether a names a known algorithm.
func (a Alg) Valid() bool { return a == SHA1 || a == SHA256 }
