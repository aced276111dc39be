#include "textflag.h"

// The matrix kernels vectorise across destination columns, four to a
// YMM register (eight to a ZMM register in abAVX512, on AVX512F). Every
// term is one VMULPD and one VADDPD: a lane does the unfused multiply,
// then the add, of the Go loop it replaces, and takes its terms in that
// loop's order, so each lane's result is the Go loop's bit for bit. Where the Go loop skips a zero term, a kernel either
// skips it too or adds -0 in its place, which is the same: x + (-0) is
// x for every x, -0 and NaN included, while the product it replaces may
// be +0 or NaN. Columns past the last whole group of four are the
// caller's. Each hot loop starts on a 64-byte boundary (PCALIGN, jumped
// over so the padding never runs), so its timing does not move with
// where the linker places the function.

// func abAVX2(dst, bias, a, b *float64, rows, n, k int)
//
// Four dst rows at a time, one 4-column chunk of them in four
// accumulators, over all n terms; then any last rows one at a time. The
// accumulators start at the bias row's chunk; dst is only written.
TEXT ·abAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ rows+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ k+48(FP), R11
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
	MOVQ    bias+8(FP), R13
	VMOVUPD (R13)(CX*1), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
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
	MOVQ    bias+8(FP), R13
	VMOVUPD (R13)(CX*1), Y0
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

// func abAVX512(dst, bias, a, b *float64, rows, n, k int)
//
// abAVX2 on 8-column chunks in ZMM registers, each term's a element a
// {1to8} broadcast, then, when k&4 is set, one 4-column chunk in YMM
// registers as abAVX2 runs it: a lane takes the same multiply and add
// in the same order in either width.
TEXT ·abAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ rows+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ k+48(FP), R11
	SHLQ $3, R11               // dst and b row stride, bytes
	MOVQ R9, R12
	SHLQ $3, R12               // a row stride, bytes
	MOVQ R11, R10
	ANDQ $-64, R10             // whole 8-column chunks of a row, bytes

zrows4:
	CMPQ R8, $4
	JLT  zrows1
	XORQ CX, CX                // chunk offset, bytes
	CMPQ CX, R10
	JGE  zlast4

zchunk4:
	LEAQ    (DI)(CX*1), AX     // dst rows 0, 1
	MOVQ    bias+8(FP), R13
	VMOVUPD (R13)(CX*1), Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	MOVQ    SI, R13            // a rows 0, 1 at term p
	LEAQ    (SI)(R12*2), BX    // a rows 2, 3 at term p
	LEAQ    (DX)(CX*1), R14    // b row p, this chunk
	MOVQ    R9, R15
	JMP     zterm4
	PCALIGN $64

zterm4:
	VMOVUPD     (R14), Z4
	VMULPD.BCST (R13), Z4, Z5
	VADDPD      Z5, Z0, Z0
	VMULPD.BCST (R13)(R12*1), Z4, Z6
	VADDPD      Z6, Z1, Z1
	VMULPD.BCST (BX), Z4, Z7
	VADDPD      Z7, Z2, Z2
	VMULPD.BCST (BX)(R12*1), Z4, Z8
	VADDPD      Z8, Z3, Z3
	ADDQ        $8, R13
	ADDQ        $8, BX
	ADDQ        R11, R14
	DECQ        R15
	JNZ         zterm4

	LEAQ    (AX)(R11*2), BX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, (AX)(R11*1)
	VMOVUPD Z2, (BX)
	VMOVUPD Z3, (BX)(R11*1)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     zchunk4

zlast4:
	TESTQ        $32, R11      // k&4
	JZ           znext4
	LEAQ         (DI)(CX*1), AX
	MOVQ         bias+8(FP), R13
	VMOVUPD      (R13)(CX*1), Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3
	MOVQ         SI, R13
	LEAQ         (SI)(R12*2), BX
	LEAQ         (DX)(CX*1), R14
	MOVQ         R9, R15

yterm4:
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
	JNZ          yterm4

	LEAQ    (AX)(R11*2), BX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R11*1)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, (BX)(R11*1)

znext4:
	LEAQ (SI)(R12*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R8
	JMP  zrows4

zrows1:
	TESTQ R8, R8
	JZ    zdone
	XORQ  CX, CX
	CMPQ  CX, R10
	JGE   zlast1

zchunk1:
	LEAQ    (DI)(CX*1), AX
	MOVQ    bias+8(FP), R13
	VMOVUPD (R13)(CX*1), Z0
	MOVQ    SI, R13
	LEAQ    (DX)(CX*1), R14
	MOVQ    R9, R15
	JMP     zterm1
	PCALIGN $64

zterm1:
	VMOVUPD     (R14), Z4
	VMULPD.BCST (R13), Z4, Z5
	VADDPD      Z5, Z0, Z0
	ADDQ        $8, R13
	ADDQ        R11, R14
	DECQ        R15
	JNZ         zterm1

	VMOVUPD Z0, (AX)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     zchunk1

zlast1:
	TESTQ   $32, R11           // k&4
	JZ      znext1
	LEAQ    (DI)(CX*1), AX
	MOVQ    bias+8(FP), R13
	VMOVUPD (R13)(CX*1), Y0
	MOVQ    SI, R13
	LEAQ    (DX)(CX*1), R14
	MOVQ    R9, R15

yterm1:
	VBROADCASTSD (R13), Y5
	VMULPD       (R14), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R13
	ADDQ         R11, R14
	DECQ         R15
	JNZ          yterm1
	VMOVUPD      Y0, (AX)

znext1:
	ADDQ R12, SI
	ADDQ R11, DI
	DECQ R8
	JMP  zrows1

zdone:
	VZEROUPPER
	RET

// func rank1AVX2(dst, a, b *float64, rows, n, k int)
//
// dst row i += a[i][p] · b row p for p ascending: one broadcast of a at
// a time, skipped when it equals zero (NaN is not skipped), added into
// the dst row in memory chunk by chunk.
TEXT ·rank1AVX2(SB), NOSPLIT, $0-48
	MOVQ   dst+0(FP), DI       // dst row i
	MOVQ   a+8(FP), SI         // a[i][p], all of a in order
	MOVQ   rows+24(FP), R10
	MOVQ   k+40(FP), R11
	SHLQ   $3, R11             // dst and b row stride, bytes
	MOVQ   R11, BX
	ANDQ   $-32, BX            // whole chunks of a row, bytes
	VXORPD X15, X15, X15

mmrow:
	MOVQ    b+16(FP), DX       // b row p
	MOVQ    n+32(FP), R8
	JMP     mmterm
	PCALIGN $64

mmterm:
	VUCOMISD (SI), X15
	JNE      mmbcast
	JPC      mmnext            // equal and ordered: a zero

mmbcast:
	VBROADCASTSD (SI), Y0
	XORQ         CX, CX

mmchunk:
	VMULPD  (DX)(CX*1), Y0, Y1
	VADDPD  (DI)(CX*1), Y1, Y1
	VMOVUPD Y1, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     mmchunk

mmnext:
	ADDQ $8, SI
	ADDQ R11, DX
	DECQ R8
	JNZ  mmterm
	ADDQ R11, DI
	DECQ R10
	JNZ  mmrow
	VZEROUPPER
	RET

// The register-blocked kernels below hold a group of up to eight 4-column
// chunks of one dst row in Y0-Y7 while they walk every sample. BX holds
// the bytes of the row left from the group's first chunk, so chunk c is
// in the group while BX > 32·c.
#define LOADGROUP(base, end) \
	VMOVUPD (base), Y0;    CMPQ BX, $32;  JLE end; \
	VMOVUPD 32(base), Y1;  CMPQ BX, $64;  JLE end; \
	VMOVUPD 64(base), Y2;  CMPQ BX, $96;  JLE end; \
	VMOVUPD 96(base), Y3;  CMPQ BX, $128; JLE end; \
	VMOVUPD 128(base), Y4; CMPQ BX, $160; JLE end; \
	VMOVUPD 160(base), Y5; CMPQ BX, $192; JLE end; \
	VMOVUPD 192(base), Y6; CMPQ BX, $224; JLE end; \
	VMOVUPD 224(base), Y7

#define STOREGROUP(base, end) \
	VMOVUPD Y0, (base);    CMPQ BX, $32;  JLE end; \
	VMOVUPD Y1, 32(base);  CMPQ BX, $64;  JLE end; \
	VMOVUPD Y2, 64(base);  CMPQ BX, $96;  JLE end; \
	VMOVUPD Y3, 96(base);  CMPQ BX, $128; JLE end; \
	VMOVUPD Y4, 128(base); CMPQ BX, $160; JLE end; \
	VMOVUPD Y5, 160(base); CMPQ BX, $192; JLE end; \
	VMOVUPD Y6, 192(base); CMPQ BX, $224; JLE end; \
	VMOVUPD Y7, 224(base)

// One dst row's term for one chunk: Y8 holds the broadcast of a.
#define ATB1(off, acc) \
	VMULPD off(R14), Y8, Y9; \
	VADDPD Y9, acc, acc

// One of four dst rows' terms for two chunks (Y9, Y10 hold b's), and
// the same with the product replaced by -0 where a is zero (Y15 holds
// zeros, Y14 -0s).
#define ATB42(off, acc0, acc1) \
	VBROADCASTSD off(R13), Y11; \
	VMULPD       Y9, Y11, Y12; \
	VADDPD       Y12, acc0, acc0; \
	VMULPD       Y10, Y11, Y11; \
	VADDPD       Y11, acc1, acc1

#define ATB42Z(off, acc0, acc1) \
	VBROADCASTSD off(R13), Y11; \
	VCMPPD       $0, Y15, Y11, Y8; \
	VMULPD       Y9, Y11, Y12; \
	VBLENDVPD    Y8, Y14, Y12, Y12; \
	VADDPD       Y12, acc0, acc0; \
	VMULPD       Y10, Y11, Y11; \
	VBLENDVPD    Y8, Y14, Y11, Y11; \
	VADDPD       Y11, acc1, acc1

// The same for one chunk (Y9 holds b's).
#define ATB41(off, acc) \
	VBROADCASTSD off(R13), Y11; \
	VMULPD       Y9, Y11, Y12; \
	VADDPD       Y12, acc, acc

#define ATB41Z(off, acc) \
	VBROADCASTSD off(R13), Y11; \
	VCMPPD       $0, Y15, Y11, Y8; \
	VMULPD       Y9, Y11, Y12; \
	VBLENDVPD    Y8, Y14, Y12, Y12; \
	VADDPD       Y12, acc, acc

// func atbAVX2(dst, a, b *float64, rows, n, k int)
//
// dst (n×k) += aᵀ·b for a rows×n and b rows×k: dst[i][j] takes
// a[s][i]·b[s][j] for s ascending. Four dst rows at a time, two chunks
// of them (one for an odd last chunk) in registers over every sample.
// One compare of the four a[s][i] per sample sends it down the blended
// path only when one of them is zero. Then any last rows one at a time,
// a group of chunks in registers, a zero a[s][i] skipping the sample.
TEXT ·atbAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI // dst row i
	MOVQ         a+8(FP), SI   // a column i, at row 0
	MOVQ         b+16(FP), DX
	MOVQ         n+32(FP), R9  // dst rows left
	MOVQ         R9, R12
	SHLQ         $3, R12       // a row stride, bytes
	MOVQ         k+40(FP), R11
	SHLQ         $3, R11       // dst and b row stride, bytes
	MOVQ         R11, R10
	ANDQ         $-32, R10     // whole chunks of a row, bytes
	VXORPD       Y15, Y15, Y15
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14

atbRows4:
	CMPQ R9, $4
	JLT  atbRows1
	XORQ CX, CX                // chunk offset, bytes

atbTile:
	LEAQ    (DI)(CX*1), AX     // dst rows 0, 1
	LEAQ    (AX)(R11*2), BX    // dst rows 2, 3
	MOVQ    SI, R13            // a[s][i]
	LEAQ    (DX)(CX*1), R14    // b[s], this chunk
	MOVQ    rows+24(FP), R15
	MOVQ    R10, R8
	SUBQ    CX, R8
	CMPQ    R8, $64
	JLT     atbTile1
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (AX)(R11*1), Y2
	VMOVUPD 32(AX)(R11*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R11*1), Y6
	VMOVUPD 32(BX)(R11*1), Y7
	JMP     atb42
	PCALIGN $64

atb42:
	VCMPPD    $0, (R13), Y15, Y8
	VMOVMSKPD Y8, R8
	VMOVUPD   (R14), Y9
	VMOVUPD   32(R14), Y10
	TESTQ     R8, R8
	JNZ       atb42z
	ATB42(0, Y0, Y1)
	ATB42(8, Y2, Y3)
	ATB42(16, Y4, Y5)
	ATB42(24, Y6, Y7)

atb42next:
	ADDQ R12, R13
	ADDQ R11, R14
	DECQ R15
	JNZ  atb42

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R11*1)
	VMOVUPD Y3, 32(AX)(R11*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R11*1)
	VMOVUPD Y7, 32(BX)(R11*1)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     atbTile
	JMP     atbNext4

atb42z:
	ATB42Z(0, Y0, Y1)
	ATB42Z(8, Y2, Y3)
	ATB42Z(16, Y4, Y5)
	ATB42Z(24, Y6, Y7)
	JMP atb42next

atbTile1:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R11*1), Y2
	VMOVUPD (BX), Y4
	VMOVUPD (BX)(R11*1), Y6
	JMP     atb41
	PCALIGN $64

atb41:
	VCMPPD    $0, (R13), Y15, Y8
	VMOVMSKPD Y8, R8
	VMOVUPD   (R14), Y9
	TESTQ     R8, R8
	JNZ       atb41z
	ATB41(0, Y0)
	ATB41(8, Y2)
	ATB41(16, Y4)
	ATB41(24, Y6)

atb41next:
	ADDQ R12, R13
	ADDQ R11, R14
	DECQ R15
	JNZ  atb41

	VMOVUPD Y0, (AX)
	VMOVUPD Y2, (AX)(R11*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y6, (BX)(R11*1)
	JMP     atbNext4

atb41z:
	ATB41Z(0, Y0)
	ATB41Z(8, Y2)
	ATB41Z(16, Y4)
	ATB41Z(24, Y6)
	JMP atb41next

atbNext4:
	ADDQ $32, SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R9
	JMP  atbRows4

atbRows1:
	TESTQ R9, R9
	JZ    atbDone
	XORQ  CX, CX

atbGroup:
	MOVQ      R10, BX
	SUBQ      CX, BX
	LEAQ      (DI)(CX*1), AX
	LOADGROUP(AX, atbLoaded)

atbLoaded:
	MOVQ    SI, R13
	LEAQ    (DX)(CX*1), R14
	MOVQ    rows+24(FP), R15
	JMP     atb1
	PCALIGN $64

atb1:
	VUCOMISD     (R13), X15
	JNE          atb1go
	JPC          atb1next      // equal and ordered: a zero

atb1go:
	VBROADCASTSD (R13), Y8
	ATB1(0, Y0)
	CMPQ         BX, $32
	JLE          atb1next
	ATB1(32, Y1)
	CMPQ         BX, $64
	JLE          atb1next
	ATB1(64, Y2)
	CMPQ         BX, $96
	JLE          atb1next
	ATB1(96, Y3)
	CMPQ         BX, $128
	JLE          atb1next
	ATB1(128, Y4)
	CMPQ         BX, $160
	JLE          atb1next
	ATB1(160, Y5)
	CMPQ         BX, $192
	JLE          atb1next
	ATB1(192, Y6)
	CMPQ         BX, $224
	JLE          atb1next
	ATB1(224, Y7)

atb1next:
	ADDQ R12, R13
	ADDQ R11, R14
	DECQ R15
	JNZ  atb1

	STOREGROUP(AX, atbStored)

atbStored:
	ADDQ $256, CX
	CMPQ CX, R10
	JLT  atbGroup
	ADDQ $8, SI
	ADDQ R11, DI
	DECQ R9
	JMP  atbRows1

atbDone:
	VZEROUPPER
	RET

// One chunk of a row's term, -0 in place of each zero (Y15 holds
// zeros, Y14 -0s).
#define COLSUM(off, acc) \
	VMOVUPD   off(R14), Y8; \
	VCMPPD    $0, Y15, Y8, Y9; \
	VBLENDVPD Y9, Y14, Y8, Y8; \
	VADDPD    Y8, acc, acc

// func colSumsAVX2(dst, a *float64, rows, k int)
//
// dst[j] += a[s][j] for s ascending, zero terms skipped: a group of up
// to eight chunks of dst in registers over every row of a.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         k+24(FP), R11
	SHLQ         $3, R11       // a row stride, bytes
	MOVQ         R11, R10
	ANDQ         $-32, R10     // whole chunks of a row, bytes
	VXORPD       Y15, Y15, Y15
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14
	XORQ         CX, CX

csGroup:
	MOVQ      R10, BX
	SUBQ      CX, BX
	LEAQ      (DI)(CX*1), AX
	LOADGROUP(AX, csLoaded)

csLoaded:
	LEAQ    (SI)(CX*1), R14
	MOVQ    rows+16(FP), R15
	JMP     cs
	PCALIGN $64

cs:
	COLSUM(0, Y0)
	CMPQ   BX, $32
	JLE    csNext
	COLSUM(32, Y1)
	CMPQ   BX, $64
	JLE    csNext
	COLSUM(64, Y2)
	CMPQ   BX, $96
	JLE    csNext
	COLSUM(96, Y3)
	CMPQ   BX, $128
	JLE    csNext
	COLSUM(128, Y4)
	CMPQ   BX, $160
	JLE    csNext
	COLSUM(160, Y5)
	CMPQ   BX, $192
	JLE    csNext
	COLSUM(192, Y6)
	CMPQ   BX, $224
	JLE    csNext
	COLSUM(224, Y7)

csNext:
	ADDQ R11, R14
	DECQ R15
	JNZ  cs

	STOREGROUP(AX, csStored)

csStored:
	ADDQ $256, CX
	CMPQ CX, R10
	JLT  csGroup
	VZEROUPPER
	RET

// func tanhDerivAVX2(d, y *float64, n int)
//
// d[i] *= 1 - y[i]*y[i] for i < n, a positive multiple of 4: VMULPD,
// VSUBPD, VMULPD, each rounded on its own as Go evaluates the loop.
TEXT ·tanhDerivAVX2(SB), NOSPLIT, $0-24
	MOVQ         d+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         $0x3FF0000000000000, AX // 1.0
	VMOVQ        AX, X15
	VBROADCASTSD X15, Y15
	XORQ         AX, AX
	JMP          td
	PCALIGN      $64

td:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y0, Y0, Y0
	VSUBPD  Y0, Y15, Y0
	VMULPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     td
	VZEROUPPER
	RET
