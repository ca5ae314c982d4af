//go:build !purego

#include "textflag.h"

// Base64 encoding on AVX2 after Muła and Lemire (2018), 24 source bytes to
// 32 characters a block, each 128-bit lane doing twelve bytes to sixteen:
//
//   1. spread: VPSHUFB copies each 3-byte group (a, b, c) into a dword as
//      the bytes b a c b, so the 16-bit halves read a<<8|b and b<<8|c;
//   2. unpack: two mask-and-multiply pairs move the four 6-bit fields
//      a>>2, (a&3)<<4|b>>4, (b&15)<<2|c>>6, c&63 into the dword's four
//      bytes (VPMULHUW by 2^6 and 2^10 shifts right, VPMULLW by 2^4 and
//      2^8 shifts left);
//   3. translate: each index i becomes i plus an offset picked by VPSHUFB
//      from a sixteen-entry table keyed by its class — 0..25 → 13 ('A'),
//      26..51 → 0 ('a'-26), 52..61 → 1..10 ('0'-52), 62 → 11 ('+'-62),
//      63 → 12 ('/'-63) — the key being the saturated i-51, or 13 where
//      i < 26.

// Per lane, source byte of each output byte: 1 0 2 1, 4 3 5 4, 7 6 8 7,
// 10 9 11 10.
DATA spread<>+0(SB)/8, $0x0405030401020001
DATA spread<>+8(SB)/8, $0x0a0b090a07080607
GLOBL spread<>(SB), RODATA|NOPTR, $16

// The offsets keyed by class: 'a'-26, ten of '0'-52, '+'-62, '/'-63, 'A'.
DATA offsets<>+0(SB)/8, $0xfcfcfcfcfcfcfc47
DATA offsets<>+8(SB)/8, $0x000041f0edfcfcfc
GLOBL offsets<>(SB), RODATA|NOPTR, $16

// Dword constants, each broadcast: the two unpack masks and multipliers,
// then the bytes 51, 26 and 13.
DATA consts<>+0(SB)/4, $0x0fc0fc00
DATA consts<>+4(SB)/4, $0x04000040
DATA consts<>+8(SB)/4, $0x003f03f0
DATA consts<>+12(SB)/4, $0x01000010
DATA consts<>+16(SB)/4, $0x33333333
DATA consts<>+20(SB)/4, $0x1a1a1a1a
DATA consts<>+24(SB)/4, $0x0d0d0d0d
GLOBL consts<>(SB), RODATA|NOPTR, $28

// func encodeAVX2(dst, src []byte) (n int)
TEXT ·encodeAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ SI, R8
	CMPQ CX, $28
	JB   done

	VBROADCASTI128 spread<>(SB), Y13
	VBROADCASTI128 offsets<>(SB), Y12
	VPBROADCASTD   consts<>+0(SB), Y11
	VPBROADCASTD   consts<>+4(SB), Y10
	VPBROADCASTD   consts<>+8(SB), Y9
	VPBROADCASTD   consts<>+12(SB), Y8
	VPBROADCASTD   consts<>+16(SB), Y7
	VPBROADCASTD   consts<>+20(SB), Y6
	VPBROADCASTD   consts<>+24(SB), Y5

loop:
	// Lane 0 is src[0:12], lane 1 src[12:24] (each load reads 16).
	VMOVDQU     (SI), X0
	VINSERTI128 $1, 12(SI), Y0, Y0
	VPSHUFB     Y13, Y0, Y0

	VPAND    Y11, Y0, Y1
	VPMULHUW Y10, Y1, Y1
	VPAND    Y9, Y0, Y2
	VPMULLW  Y8, Y2, Y2
	VPOR     Y1, Y2, Y0

	VPSUBUSB Y7, Y0, Y1
	VPCMPGTB Y0, Y6, Y2
	VPAND    Y5, Y2, Y2
	VPOR     Y2, Y1, Y1
	VPSHUFB  Y1, Y12, Y1
	VPADDB   Y1, Y0, Y0
	VMOVDQU  Y0, (DI)

	ADDQ $24, SI
	ADDQ $32, DI
	SUBQ $24, CX
	CMPQ CX, $28
	JAE  loop
	VZEROUPPER

done:
	SUBQ R8, SI
	MOVQ SI, n+48(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
