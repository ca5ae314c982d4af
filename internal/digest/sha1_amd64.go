//go:build !purego

package digest

import (
	"crypto/sha1"
	"encoding/binary"
)

// blockSHANI folds the whole 64-byte blocks of p into the SHA-1 state h
// with SHA1RNDS4 / SHA1NEXTE / SHA1MSG1 / SHA1MSG2. p is read where it
// lies, at any alignment.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// useSHANI gates the kernel on the three CPUID bits it needs: SHA (leaf 7
// EBX bit 29), SSSE3 for PSHUFB and SSE4.1 for PINSRD/PEXTRD (leaf 1 ECX
// bits 9 and 19). A variable so a test can run both paths.
var useSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}()

// sumSHA1 is sha1.Sum, bit for bit. On the kernel it hashes msg's whole
// blocks in place and the padded tail from a stack buffer, with no
// hash.Hash built.
func sumSHA1(msg []byte) (d [sha1.Size]byte) {
	if !useSHANI {
		return sha1.Sum(msg)
	}
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(msg) &^ 63
	if whole > 0 {
		blockSHANI(&h, msg[:whole])
	}
	var tail [128]byte
	n := copy(tail[:], msg[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:], uint64(len(msg))<<3)
	blockSHANI(&h, tail[:end])
	for i, w := range h {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
	return d
}
