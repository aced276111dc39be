#include "textflag.h"

// The matrix kernels vectorise across destination columns, four to a
// YMM register. Every term is one VBROADCASTSD, one VMULPD and one
// VADDPD: a lane does the unfused multiply, then the add, of the Go loop
// it replaces, and takes its terms in that loop's order, so each lane's
// result is the Go loop's bit for bit. Columns past the last whole group
// of four are the caller's. Each hot loop starts on a 64-byte boundary
// (PCALIGN, jumped over so the padding never runs), so its timing does
// not move with where the linker places the function.

// func abAVX2(dst, a, b *float64, rows, n, k int)
//
// Four dst rows at a time, one 4-column chunk of them in four
// accumulators, over all n terms; then any last rows one at a time.
TEXT ·abAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ k+40(FP), R11
	SHLQ $3, R11               // dst and b row stride, bytes
	MOVQ R9, R12
	SHLQ $3, R12               // a row stride, bytes
	MOVQ R11, R10
	ANDQ $-32, R10             // whole chunks of a row, bytes

rows4:
	CMPQ R8, $4
	JLT  rows1
	XORQ CX, CX                // chunk offset, bytes

chunk4:
	LEAQ    (DI)(CX*1), AX     // dst rows 0, 1
	LEAQ    (AX)(R11*2), BX    // dst rows 2, 3
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R11*1), Y1
	VMOVUPD (BX), Y2
	VMOVUPD (BX)(R11*1), Y3
	MOVQ    SI, R13            // a rows 0, 1 at term p
	LEAQ    (SI)(R12*2), BX    // a rows 2, 3 at term p
	LEAQ    (DX)(CX*1), R14    // b row p, this chunk
	MOVQ    R9, R15
	JMP     term4
	PCALIGN $64

term4:
	VMOVUPD      (R14), Y4
	VBROADCASTSD (R13), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R13)(R12*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (BX), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (BX)(R12*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R13
	ADDQ         $8, BX
	ADDQ         R11, R14
	DECQ         R15
	JNZ          term4

	LEAQ    (AX)(R11*2), BX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R11*1)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, (BX)(R11*1)
	ADDQ    $32, CX
	CMPQ    CX, R10
	JLT     chunk4
	LEAQ    (SI)(R12*4), SI
	LEAQ    (DI)(R11*4), DI
	SUBQ    $4, R8
	JMP     rows4

rows1:
	TESTQ R8, R8
	JZ    done
	XORQ  CX, CX

chunk1:
	LEAQ    (DI)(CX*1), AX
	VMOVUPD (AX), Y0
	MOVQ    SI, R13
	LEAQ    (DX)(CX*1), R14
	MOVQ    R9, R15
	JMP     term1
	PCALIGN $64

term1:
	VBROADCASTSD (R13), Y5
	VMULPD       (R14), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R13
	ADDQ         R11, R14
	DECQ         R15
	JNZ          term1

	VMOVUPD Y0, (AX)
	ADDQ    $32, CX
	CMPQ    CX, R10
	JLT     chunk1
	ADDQ    R12, SI
	ADDQ    R11, DI
	DECQ    R8
	JMP     rows1

done:
	VZEROUPPER
	RET

// func rank1AVX2(dst, a, src *float64, outer, inner, dO, dQ, sO, sQ, k int)
//
// One broadcast of a at a time, skipped when it equals zero (NaN is not
// skipped), added into the dst row in memory chunk by chunk.
TEXT ·rank1AVX2(SB), NOSPLIT, $0-80
	MOVQ    dst+0(FP), R8      // dst at (o, 0)
	MOVQ    a+8(FP), SI
	MOVQ    src+16(FP), R9     // src at (o, 0)
	MOVQ    outer+24(FP), R10
	MOVQ    dO+40(FP), R13
	SHLQ    $3, R13
	MOVQ    dQ+48(FP), R14
	SHLQ    $3, R14
	MOVQ    sO+56(FP), R15
	SHLQ    $3, R15
	MOVQ    sQ+64(FP), AX
	SHLQ    $3, AX
	MOVQ    k+72(FP), BX
	SHLQ    $3, BX
	ANDQ    $-32, BX           // whole chunks of a row, bytes
	VXORPD  X15, X15, X15

outer:
	MOVQ    R8, DI
	MOVQ    R9, DX
	MOVQ    inner+32(FP), R11
	JMP     inner
	PCALIGN $64

inner:
	VUCOMISD (SI), X15
	JNE      bcast
	JPC      next              // equal and ordered: a zero

bcast:
	VBROADCASTSD (SI), Y0
	XORQ         CX, CX

chunk:
	VMULPD  (DX)(CX*1), Y0, Y1
	VADDPD  (DI)(CX*1), Y1, Y1
	VMOVUPD Y1, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     chunk

next:
	ADDQ $8, SI
	ADDQ R14, DI
	ADDQ AX, DX
	DECQ R11
	JNZ  inner
	ADDQ R13, R8
	ADDQ R15, R9
	DECQ R10
	JNZ  outer
	VZEROUPPER
	RET
