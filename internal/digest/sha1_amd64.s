//go:build !purego

#include "textflag.h"

// The SHA-1 block function on the SHA extensions. X0 holds a, b, c, d with a
// in the top dword (the order SHA1RNDS4 wants), X1 and X2 alternate as e
// (top dword), X3-X6 are the sixteen message words of the block, four to a
// register, byte-flipped through X7; X8 and X9 keep the incoming state for
// the final add.

DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16

#define LOAD(off, m) \
	MOVOU off(SI), m; PSHUFB X7, m

// Four rounds, group i of twenty, with message words m = MSG[i%4]: fold m
// into e, keep abcd as the next group's e, run the rounds with constant k.
#define ROUNDS(k, m, e, enext) \
	SHA1NEXTE m, e; MOVO X0, enext; SHA1RNDS4 k, e, X0

// The message schedule around them: m completes MSG[(i+1)%4] (3 <= i <= 18),
// starts MSG[(i-1)%4] (1 <= i <= 16) and is xored into MSG[(i-2)%4]
// (2 <= i <= 17).
#define GROUP(k, m, next, prev, prev2, e, enext) \
	SHA1NEXTE m, e; MOVO X0, enext; SHA1MSG2 m, next; SHA1RNDS4 k, e, X0; SHA1MSG1 m, prev; PXOR m, prev2

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ   h+0(FP), DI
	MOVQ   p_base+8(FP), SI
	MOVQ   p_len+16(FP), DX
	SHRQ   $6, DX
	JZ     done
	MOVOU  (DI), X0
	PSHUFD $0x1B, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flip<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	LOAD(0, X3)
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	LOAD(16, X4)
	ROUNDS($0, X4, X2, X1)
	SHA1MSG1  X4, X3
	LOAD(32, X5)
	ROUNDS($0, X5, X1, X2)
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	LOAD(48, X6)
	GROUP($0, X6, X3, X5, X4, X2, X1)
	GROUP($0, X3, X4, X6, X5, X1, X2)
	GROUP($1, X4, X5, X3, X6, X2, X1)
	GROUP($1, X5, X6, X4, X3, X1, X2)
	GROUP($1, X6, X3, X5, X4, X2, X1)
	GROUP($1, X3, X4, X6, X5, X1, X2)
	GROUP($1, X4, X5, X3, X6, X2, X1)
	GROUP($2, X5, X6, X4, X3, X1, X2)
	GROUP($2, X6, X3, X5, X4, X2, X1)
	GROUP($2, X3, X4, X6, X5, X1, X2)
	GROUP($2, X4, X5, X3, X6, X2, X1)
	GROUP($2, X5, X6, X4, X3, X1, X2)
	GROUP($3, X6, X3, X5, X4, X2, X1)
	GROUP($3, X3, X4, X6, X5, X1, X2)
	ROUNDS($3, X4, X2, X1)
	SHA1MSG2  X4, X5
	PXOR      X4, X6
	ROUNDS($3, X5, X1, X2)
	SHA1MSG2  X5, X6
	ROUNDS($3, X6, X2, X1)

	SHA1NEXTE X9, X1
	PADDD     X8, X0
	ADDQ      $64, SI
	DECQ      DX
	JNZ       loop

	PSHUFD $0x1B, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
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
