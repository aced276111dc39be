package mlp

import (
	"fmt"

	"colocmodel/internal/linalg"
)

// numParamVecs is how many parameter-length scratch vectors a Workspace
// carries for the SCG trainer.
const numParamVecs = 7

// Workspace holds the activation, delta, packed-weight and
// parameter-length scratch that the batched forward/backward passes and
// the trainers write into. A workspace grows on demand and is reused
// across every training iteration, so a warmed SCG iteration performs
// zero heap allocations at any sample count (TestSCGStepZeroAllocs
// checks 128 rows and the paper's 1 294).
//
// Reuse contract: a Workspace is NOT goroutine-safe. Keep one workspace
// per worker goroutine (core.Evaluate does exactly that); sharing one
// across concurrent trainings corrupts both runs.
type Workspace struct {
	// hid holds the hidden layer's tanh outputs (rows × Hidden) and out
	// the network's output (rows × 1).
	hid, out linalg.Matrix
	// dHid and dOut hold the backpropagated error at the hidden layer's
	// and the output's outputs.
	dHid, dOut linalg.Matrix
	// wt holds the hidden weights packed for linalg.MulABTBias (Inputs ×
	// Hidden, the transpose of their layout in params), repacked on
	// every forward pass.
	wt linalg.Matrix
	// vecs are parameter-length scratch vectors for the trainer.
	vecs [numParamVecs][]float64
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily on
// first use and grown as needed.
func NewWorkspace() *Workspace { return &Workspace{} }

// growMat resizes m to r×c, reusing the backing array when it is large
// enough.
func growMat(m *linalg.Matrix, r, c int) {
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	}
	m.Data = m.Data[:r*c]
	m.Rows, m.Cols = r, c
}

// ensure shapes the workspace for a batch of rows samples through n.
func (w *Workspace) ensure(n *Network, rows int) {
	h := n.cfg.Hidden
	growMat(&w.hid, rows, h)
	growMat(&w.dHid, rows, h)
	growMat(&w.out, rows, 1)
	growMat(&w.dOut, rows, 1)
	growMat(&w.wt, n.cfg.Inputs, h)
}

// paramVec returns the i-th parameter-length scratch vector, grown to dim.
// Contents are whatever the previous user left there; callers that need
// zeros must clear it.
func (w *Workspace) paramVec(i, dim int) []float64 {
	if cap(w.vecs[i]) < dim {
		w.vecs[i] = make([]float64, dim)
	}
	w.vecs[i] = w.vecs[i][:dim]
	return w.vecs[i]
}

// forwardBatch runs the forward pass over the whole sample matrix: one
// GEMM for the hidden layer, one linalg.Tanh call over its outputs, and a
// dot product per sample for the output node (linalg.GemvBiasInto). Each
// pre-activation starts at the bias and receives its weighted inputs in
// ascending input-index order, so every output is bit-identical to the
// scalar Forward loop. The hidden weights are packed into ws for
// linalg.MulABTBias; a one-node hidden layer is a dot product per sample
// too, in the same order. Returns the rows×1 output.
func (n *Network) forwardBatch(ws *Workspace, x *linalg.Matrix) *linalg.Matrix {
	hw, hb, ow, ob := n.split(n.params)
	if len(hb) == 1 {
		linalg.GemvBiasInto(ws.hid.Data, x, hw, hb[0])
	} else {
		linalg.TransposeInto(&ws.wt, &linalg.Matrix{Rows: len(hb), Cols: x.Cols, Data: hw})
		linalg.MulABTBias(&ws.hid, x, &ws.wt, hb)
	}
	// Forward's math.Tanh, which linalg.Tanh gives bit for bit.
	linalg.Tanh(ws.hid.Data)
	linalg.GemvBiasInto(ws.out.Data, &ws.hid, ow, ob[0])
	return &ws.out
}

// LossWS returns the mean squared error ½·mean((pred−y)²) at the current
// parameters, reusing ws for the forward pass.
func (n *Network) LossWS(ws *Workspace, x *linalg.Matrix, y []float64) (float64, error) {
	if x.Cols != n.cfg.Inputs {
		return 0, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	if len(y) != x.Rows {
		return 0, fmt.Errorf("mlp: %d labels for %d samples", len(y), x.Rows)
	}
	ws.ensure(n, x.Rows)
	pred := n.forwardBatch(ws, x)
	s := 0.0
	for i, p := range pred.Data {
		d := p - y[i]
		s += d * d
	}
	return s / (2 * float64(len(y))), nil
}

// LossAndGradWS computes the loss and its gradient into the caller-provided
// grad slice (length NumParams) via one batched backward pass: a GEMM per
// layer for the weight gradients (linalg.AccumMulATB applies the per-sample
// rank-1 updates in ascending sample order, exactly the order the scalar
// per-sample loop accumulated them in) and one for the delta sent back to
// the hidden layer. Results are bit-identical to the scalar reference;
// see the property tests. Zero heap allocations once ws is warmed.
func (n *Network) LossAndGradWS(ws *Workspace, x *linalg.Matrix, y []float64, grad []float64) (float64, error) {
	if x.Cols != n.cfg.Inputs {
		return 0, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	if len(y) != x.Rows {
		return 0, fmt.Errorf("mlp: %d labels for %d samples", len(y), x.Rows)
	}
	if len(grad) != len(n.params) {
		return 0, fmt.Errorf("mlp: gradient slice length %d, network has %d params", len(grad), len(n.params))
	}
	ws.ensure(n, x.Rows)
	n.forwardBatch(ws, x)
	raw := n.backwardRaw(ws, x, y, grad)
	inv := 1 / float64(x.Rows)
	linalg.Scal(inv, grad)
	return raw * 0.5 * inv, nil
}

// backwardRaw runs the batched backward pass against the activations
// already present in ws (from a forwardBatch at the current parameters),
// filling grad with unnormalised gradient sums and returning the raw
// sum-of-squares loss. Separated from LossAndGradWS so the SCG accept path
// can reuse the trial step's forward activations instead of recomputing
// them — the recomputation would produce identical bits, so skipping it
// changes nothing but time.
func (n *Network) backwardRaw(ws *Workspace, x *linalg.Matrix, y []float64, grad []float64) float64 {
	clear(grad)
	_, _, ow, _ := n.split(n.params)
	gw, gb, gow, gob := n.split(grad)
	h := n.cfg.Hidden
	// The output node's bias gradient is the errors' sum in sample order
	// from +0: AccumColSums on the one-column dOut would skip the zero
	// errors, which leave such a sum as it is.
	loss, bias := 0.0, 0.0
	for s := 0; s < x.Rows; s++ {
		diff := ws.out.Data[s] - y[s]
		loss += diff * diff
		bias += diff
		ws.dOut.Data[s] = diff
	}
	gob[0] = bias
	// The output node: its weight gradients, then the error it sends back
	// through its weights and the tanh derivative, 1 − v·v, which
	// MulTanhDeriv multiplies by, rounding each step on its own.
	gowM := linalg.Matrix{Rows: 1, Cols: h, Data: gow}
	linalg.AccumMulATB(&gowM, &ws.dOut, &ws.hid)
	clear(ws.dHid.Data)
	owM := linalg.Matrix{Rows: 1, Cols: h, Data: ow}
	linalg.AccumMatMul(&ws.dHid, &ws.dOut, &owM)
	linalg.MulTanhDeriv(ws.dHid.Data, ws.hid.Data)
	// The hidden layer's weight and bias gradients.
	gwM := linalg.Matrix{Rows: h, Cols: x.Cols, Data: gw}
	linalg.AccumMulATB(&gwM, &ws.dHid, x)
	linalg.AccumColSums(gb, &ws.dHid)
	return loss
}
