#include "textflag.h"

// Byte offsets of tanhConst's rows (tanh_amd64.go), 32 bytes a row.
#define ABS 0
#define ONE 32
#define TWO 64
#define LOG2E 96
#define LN2U 128
#define LN2L 160
#define SIXTEENTH 192
#define E9 224
#define E8 256
#define E7 288
#define E6 320
#define E5 352
#define E4 384
#define HALF 416
#define BIAS 448
#define P0 480
#define P1 512
#define P2 544
#define Q0 576
#define Q1 608
#define Q2 640
#define EXPMIN 672
#define SAT 704

// func tanhAVX2(v []float64, k *[tanhRows][4]uint64)
//
// Four lanes of math.Tanh (math/tanh.go) per iteration. Each lane
// computes both of tanh's paths and blends them in the order of its
// switch:
//   - rational path: x + ((x*s)*P(s))/Q(s), s = x*x, each step rounded
//     on its own as Go evaluates it;
//   - exp path, |x| >= 0.625: 1 - 2/(exp(2|x|)+1) with x's sign, where
//     exp is the avxfma branch of math's exp_amd64.s done lane-wise;
//   - |x| > 0.5*MAXLOG gives ±1, and x == 0 gives x (keeping -0).
// NaN fails both ordered compares and takes the rational path, as it
// falls through Go's switch.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ k+24(FP), R8
	SHRQ $2, CX
	JZ   done
	VMOVUPD ABS(R8), Y15
	VMOVUPD ONE(R8), Y14
	VMOVUPD TWO(R8), Y13
	VXORPD  Y12, Y12, Y12

loop:
	VMOVUPD (SI), Y0             // x
	VANDPD  Y15, Y0, Y1          // z = |x|
	VANDNPD Y0, Y15, Y2          // x's sign bit

	// Y3 = exp(2z). k = round(2z·log2e) in X5, its float in Y4.
	VADDPD       Y1, Y1, Y3
	VMULPD       LOG2E(R8), Y3, Y4
	VCVTPD2DQY   Y4, X5
	VCVTDQ2PD    X5, Y4
	VFNMADD231PD LN2U(R8), Y4, Y3
	VFNMADD231PD LN2L(R8), Y4, Y3
	VMULPD       SIXTEENTH(R8), Y3, Y3
	VMOVUPD      E9(R8), Y6
	VFMADD213PD  E8(R8), Y3, Y6
	VFMADD213PD  E7(R8), Y3, Y6
	VFMADD213PD  E6(R8), Y3, Y6
	VFMADD213PD  E5(R8), Y3, Y6
	VFMADD213PD  E4(R8), Y3, Y6
	VFMADD213PD  HALF(R8), Y3, Y6
	VFMADD213PD  ONE(R8), Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y13, Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y13, Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y13, Y3, Y6
	VMULPD       Y6, Y3, Y3
	VADDPD       Y13, Y3, Y6
	VFMADD213PD  Y14, Y6, Y3
	VPMOVSXDQ    X5, Y5
	VPADDQ       BIAS(R8), Y5, Y5
	VPSLLQ       $52, Y5, Y5
	VMULPD       Y5, Y3, Y3

	// Exp path: 1 - 2/(s+1), x's sign ORed back.
	VADDPD Y14, Y3, Y3
	VDIVPD Y3, Y13, Y3
	VSUBPD Y3, Y14, Y3
	VORPD  Y2, Y3, Y3

	// Rational path.
	VMULPD Y0, Y0, Y8            // s = x*x
	VMULPD P0(R8), Y8, Y9
	VADDPD P1(R8), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD P2(R8), Y9, Y9        // (P0*s+P1)*s+P2
	VADDPD Q0(R8), Y8, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q1(R8), Y10, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q2(R8), Y10, Y10      // ((s+Q0)*s+Q1)*s+Q2
	VMULPD Y8, Y0, Y11
	VMULPD Y9, Y11, Y11
	VDIVPD Y10, Y11, Y11
	VADDPD Y0, Y11, Y11

	VCMPPD    $0x1d, EXPMIN(R8), Y1, Y7 // z >= 0.625, GE_OQ
	VBLENDVPD Y7, Y3, Y11, Y11
	VCMPPD    $0x1e, SAT(R8), Y1, Y7    // z > 0.5*MAXLOG, GT_OQ
	VORPD     Y2, Y14, Y3
	VBLENDVPD Y7, Y3, Y11, Y11
	VCMPPD    $0x00, Y12, Y0, Y7        // x == 0, EQ_OQ
	VBLENDVPD Y7, Y0, Y11, Y11
	VMOVUPD   Y11, (SI)

	ADDQ $32, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET

// func tanhAVX512(v []float64, k *[tanhRows][4]uint64)
//
// tanhAVX2 on eight lanes per iteration, over len(v)/8 groups: the same
// operations in the same order on ZMM registers, each constant read as
// a {1to8} broadcast of its table row's first element, the bitwise
// operations as their integer forms (AVX512F has no 512-bit VANDPD),
// and the three blends as moves under a compare's opmask. A lane's
// result is therefore tanhAVX2's, bit for bit.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ k+24(FP), R8
	SHRQ $3, CX
	JZ   done512
	VBROADCASTSD ABS(R8), Z15
	VBROADCASTSD ONE(R8), Z14
	VBROADCASTSD TWO(R8), Z13
	VPXORQ       Z12, Z12, Z12

loop512:
	VMOVUPD (SI), Z0             // x
	VPANDQ  Z15, Z0, Z1          // z = |x|
	VPANDNQ Z0, Z15, Z2          // x's sign bit

	// Z3 = exp(2z). k = round(2z·log2e) in Y5, its float in Z4.
	VADDPD            Z1, Z1, Z3
	VMULPD.BCST       LOG2E(R8), Z3, Z4
	VCVTPD2DQ         Z4, Y5
	VCVTDQ2PD         Y5, Z4
	VFNMADD231PD.BCST LN2U(R8), Z4, Z3
	VFNMADD231PD.BCST LN2L(R8), Z4, Z3
	VMULPD.BCST       SIXTEENTH(R8), Z3, Z3
	VBROADCASTSD      E9(R8), Z6
	VFMADD213PD.BCST  E8(R8), Z3, Z6
	VFMADD213PD.BCST  E7(R8), Z3, Z6
	VFMADD213PD.BCST  E6(R8), Z3, Z6
	VFMADD213PD.BCST  E5(R8), Z3, Z6
	VFMADD213PD.BCST  E4(R8), Z3, Z6
	VFMADD213PD.BCST  HALF(R8), Z3, Z6
	VFMADD213PD.BCST  ONE(R8), Z3, Z6
	VMULPD            Z6, Z3, Z3
	VADDPD            Z13, Z3, Z6
	VMULPD            Z6, Z3, Z3
	VADDPD            Z13, Z3, Z6
	VMULPD            Z6, Z3, Z3
	VADDPD            Z13, Z3, Z6
	VMULPD            Z6, Z3, Z3
	VADDPD            Z13, Z3, Z6
	VFMADD213PD       Z14, Z6, Z3
	VPMOVSXDQ         Y5, Z5
	VPADDQ.BCST       BIAS(R8), Z5, Z5
	VPSLLQ            $52, Z5, Z5
	VMULPD            Z5, Z3, Z3

	// Exp path: 1 - 2/(s+1), x's sign ORed back.
	VADDPD Z14, Z3, Z3
	VDIVPD Z3, Z13, Z3
	VSUBPD Z3, Z14, Z3
	VPORQ  Z2, Z3, Z3

	// Rational path.
	VMULPD      Z0, Z0, Z8       // s = x*x
	VMULPD.BCST P0(R8), Z8, Z9
	VADDPD.BCST P1(R8), Z9, Z9
	VMULPD      Z8, Z9, Z9
	VADDPD.BCST P2(R8), Z9, Z9   // (P0*s+P1)*s+P2
	VADDPD.BCST Q0(R8), Z8, Z10
	VMULPD      Z8, Z10, Z10
	VADDPD.BCST Q1(R8), Z10, Z10
	VMULPD      Z8, Z10, Z10
	VADDPD.BCST Q2(R8), Z10, Z10 // ((s+Q0)*s+Q1)*s+Q2
	VMULPD      Z8, Z0, Z11
	VMULPD      Z9, Z11, Z11
	VDIVPD      Z10, Z11, Z11
	VADDPD      Z0, Z11, Z11

	VCMPPD.BCST $0x1d, EXPMIN(R8), Z1, K1 // z >= 0.625, GE_OQ
	VMOVAPD     Z3, K1, Z11
	VCMPPD.BCST $0x1e, SAT(R8), Z1, K1    // z > 0.5*MAXLOG, GT_OQ
	VPORQ       Z2, Z14, Z3
	VMOVAPD     Z3, K1, Z11
	VCMPPD      $0x00, Z12, Z0, K1        // x == 0, EQ_OQ
	VMOVAPD     Z0, K1, Z11
	VMOVUPD     Z11, (SI)

	ADDQ $64, SI
	DECQ CX
	JNZ  loop512
	VZEROUPPER

done512:
	RET
