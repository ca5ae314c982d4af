//go:build !purego

package b64

import "encoding/base64"

// encodeAVX2 encodes src in 24-byte blocks, 32 characters each into dst,
// for as long as 28 bytes remain (each block's second lane loads 16 bytes
// from the block's twelfth), and returns how many source bytes it
// encoded: a multiple of 24, zero below 28. dst must hold n/3*4 bytes.
//
//go:noescape
func encodeAVX2(dst, src []byte) (n int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the state components the OS saves on a context switch.
func xgetbv() (eax uint32)

// useAVX2 gates the kernel on AVX2 (leaf 7 EBX bit 5) and on the OS saving
// YMM state: OSXSAVE and AVX (leaf 1 ECX bits 27 and 28) before XGETBV may
// run, then XCR0's XMM and YMM bits. A variable so a test can run both
// paths.
var useAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

// encode writes StdEncoding of src into dst, which is exactly
// EncodedLen(len(src)) long: whole blocks on the kernel, the tail (under
// 28 bytes, padding included) on encoding/base64. Splitting at a multiple
// of three bytes keeps the output that of one encoding.
func encode(dst, src []byte) {
	if useAVX2 {
		n := encodeAVX2(dst, src)
		dst, src = dst[n/3*4:], src[n:]
	}
	base64.StdEncoding.Encode(dst, src)
}
