package linalg

import "math"

// tanhAVX2 and tanhAVX512 run the kernel over len(v)/4 groups of four
// elements and len(v)/8 groups of eight, with k as its constant table.
// They are in tanh_amd64.s.
//
//go:noescape
func tanhAVX2(v []float64, k *[tanhRows][4]uint64)

//go:noescape
func tanhAVX512(v []float64, k *[tanhRows][4]uint64)

// tanh4 runs the 4-lane kernel over v, whose length is a multiple of 4.
func tanh4(v []float64) { tanhAVX2(v, &tanhConst) }

// tanh8 runs the 8-lane kernel over v, whose length is a multiple of 8.
func tanh8(v []float64) { tanhAVX512(v, &tanhConst) }

// tanhConst is the kernels' constant table, each constant in all four
// lanes so the 4-lane kernel can take it as a 256-bit memory operand;
// the 8-lane kernel broadcasts a row's first element. The row
// order is the offsets #defined in tanh_amd64.s. The values are math's:
// exp_amd64.s for the exp part, tanh.go for the rest.
var tanhConst = [tanhRows][4]uint64{
	lanes(0x7FFFFFFFFFFFFFFF), // |x| mask
	lanesF(1),
	lanesF(2),
	lanesF(1.4426950408889634073599246810018920),                  // log2(e)
	lanesF(0.69314718055966295651160180568695068359375),           // ln2, upper half
	lanesF(0.28235290563031577122588448175013436025525412068e-12), // ln2, lower half
	lanesF(0.0625),
	lanesF(2.4801587301587301587e-5), // exp polynomial, highest term first
	lanesF(1.9841269841269841270e-4),
	lanesF(1.3888888888888888889e-3),
	lanesF(8.3333333333333333333e-3),
	lanesF(4.1666666666666666667e-2),
	lanesF(1.6666666666666666667e-1),
	lanesF(0.5),
	lanes(0x3FF),                       // exponent bias
	lanesF(-9.64399179425052238628e-1), // tanh P
	lanesF(-9.92877231001918586564e1),
	lanesF(-1.61468768441708447952e3),
	lanesF(1.12811678491632931402e2), // tanh Q
	lanesF(2.23548839060100448583e3),
	lanesF(4.84406305325125486048e3),
	lanesF(0.625),                              // smallest |x| on the exp path
	lanesF(0.5 * 8.8029691931113054295988e+01), // largest |x| not saturated
}

const tanhRows = 23

func lanes(b uint64) [4]uint64 { return [4]uint64{b, b, b, b} }

func lanesF(f float64) [4]uint64 { return lanes(math.Float64bits(f)) }
