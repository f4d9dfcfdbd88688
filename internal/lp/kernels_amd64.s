#include "textflag.h"

// AVX2 forms of the loops in kernels.go. Each lane gets the Go loop's
// operations on one element, in its order: VMULPD, then VSUBPD or VADDPD,
// each rounded on its own; no FMA. Elements go eight at a time, then four,
// then one with the scalar VEX forms. Every column of a pass is loaded,
// updated and stored before the next one is read, as the Go loop does
// per element. The vector registers are cleared with VZEROUPPER on return.

// SUB8(c, v): c[i:i+8] -= dir[i:i+8]·v, with dir[i:i+8] in Y4 and Y5.
#define SUB8(c, v) \
	VMULPD  v, Y4, Y6; \
	VMULPD  v, Y5, Y7; \
	VMOVUPD (c)(AX*8), Y8; \
	VMOVUPD 32(c)(AX*8), Y9; \
	VSUBPD  Y6, Y8, Y8; \
	VSUBPD  Y7, Y9, Y9; \
	VMOVUPD Y8, (c)(AX*8); \
	VMOVUPD Y9, 32(c)(AX*8)

// SUB4(c, v): c[i:i+4] -= dir[i:i+4]·v, with dir[i:i+4] in Y4.
#define SUB4(c, v) \
	VMULPD  v, Y4, Y6; \
	VMOVUPD (c)(AX*8), Y8; \
	VSUBPD  Y6, Y8, Y8; \
	VMOVUPD Y8, (c)(AX*8)

// SUB1(c, x): c[i] -= dir[i]·x, with dir[i] in X4.
#define SUB1(c, x) \
	VMULSD x, X4, X6; \
	VMOVSD (c)(AX*8), X8; \
	VSUBSD X6, X8, X8; \
	VMOVSD X8, (c)(AX*8)

// func sweep4AVX2(n int, dir, c0, c1, c2, c3 *float64, v0, v1, v2, v3 float64)
TEXT ·sweep4AVX2(SB), NOSPLIT, $0-80
	MOVQ         n+0(FP), CX
	MOVQ         dir+8(FP), SI
	MOVQ         c0+16(FP), DI
	MOVQ         c1+24(FP), R8
	MOVQ         c2+32(FP), R9
	MOVQ         c3+40(FP), R10
	VBROADCASTSD v0+48(FP), Y0
	VBROADCASTSD v1+56(FP), Y1
	VBROADCASTSD v2+64(FP), Y2
	VBROADCASTSD v3+72(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JEQ          sweep4_four

sweep4_eight:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	SUB8(DI, Y0)
	SUB8(R8, Y1)
	SUB8(R9, Y2)
	SUB8(R10, Y3)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      sweep4_eight

sweep4_four:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      sweep4_one
	VMOVUPD (SI)(AX*8), Y4
	SUB4(DI, Y0)
	SUB4(R8, Y1)
	SUB4(R9, Y2)
	SUB4(R10, Y3)
	ADDQ    $4, AX

sweep4_one:
	CMPQ   AX, CX
	JAE    sweep4_done
	VMOVSD (SI)(AX*8), X4
	SUB1(DI, X0)
	SUB1(R8, X1)
	SUB1(R9, X2)
	SUB1(R10, X3)
	INCQ   AX
	JMP    sweep4_one

sweep4_done:
	VZEROUPPER
	RET

// func sweep1AVX2(n int, dir, c *float64, v float64)
TEXT ·sweep1AVX2(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	MOVQ         dir+8(FP), SI
	MOVQ         c+16(FP), DI
	VBROADCASTSD v+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JEQ          sweep1_four

sweep1_eight:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	SUB8(DI, Y0)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      sweep1_eight

sweep1_four:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      sweep1_one
	VMOVUPD (SI)(AX*8), Y4
	SUB4(DI, Y0)
	ADDQ    $4, AX

sweep1_one:
	CMPQ   AX, CX
	JAE    sweep1_done
	VMOVSD (SI)(AX*8), X4
	SUB1(DI, X0)
	INCQ   AX
	JMP    sweep1_one

sweep1_done:
	VZEROUPPER
	RET

// ADDMUL4: out[i:i+4] = (out[i:i+4] + c0[i:i+4]·v0) + c1[i:i+4]·v1.
#define ADDMUL4(off) \
	VMULPD  off(R8)(AX*8), Y0, Y6; \
	VMULPD  off(R9)(AX*8), Y1, Y7; \
	VMOVUPD off(DI)(AX*8), Y8; \
	VADDPD  Y6, Y8, Y8; \
	VADDPD  Y7, Y8, Y8; \
	VMOVUPD Y8, off(DI)(AX*8)

// func addMul2AVX2(n int, out, c0, c1 *float64, v0, v1 float64)
TEXT ·addMul2AVX2(SB), NOSPLIT, $0-48
	MOVQ         n+0(FP), CX
	MOVQ         out+8(FP), DI
	MOVQ         c0+16(FP), R8
	MOVQ         c1+24(FP), R9
	VBROADCASTSD v0+32(FP), Y0
	VBROADCASTSD v1+40(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JEQ          addmul2_four

addmul2_eight:
	ADDMUL4(0)
	ADDMUL4(32)
	ADDQ $8, AX
	CMPQ AX, DX
	JB   addmul2_eight

addmul2_four:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JB   addmul2_one
	ADDMUL4(0)
	ADDQ $4, AX

addmul2_one:
	CMPQ   AX, CX
	JAE    addmul2_done
	VMOVSD (R8)(AX*8), X6
	VMULSD X0, X6, X6
	VMOVSD (R9)(AX*8), X7
	VMULSD X1, X7, X7
	VMOVSD (DI)(AX*8), X8
	VADDSD X6, X8, X8
	VADDSD X7, X8, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	JMP    addmul2_one

addmul2_done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
