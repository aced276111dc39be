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
	// acts[0] aliases the input matrix; acts[li+1] holds layer li's output
	// (rows × layer.out).
	acts []linalg.Matrix
	// deltas[li] holds the backpropagated error at layer li's output.
	deltas []linalg.Matrix
	// wt[li] holds layer li's weights packed for linalg.MulABTBias
	// (in × out, the transpose of their out × in layout in params),
	// repacked on every forward pass.
	wt []linalg.Matrix
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
	nl := len(n.layers)
	if len(w.acts) < nl+1 {
		w.acts = make([]linalg.Matrix, nl+1)
	}
	if len(w.deltas) < nl {
		w.deltas = make([]linalg.Matrix, nl)
		w.wt = make([]linalg.Matrix, nl)
	}
	for li, ly := range n.layers {
		growMat(&w.acts[li+1], rows, ly.out)
		growMat(&w.deltas[li], rows, ly.out)
		growMat(&w.wt[li], ly.in, ly.out)
	}
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

// forwardBatch runs the layer-at-a-time forward pass: one GEMM per layer
// over the whole sample matrix. Each pre-activation starts at the bias and
// receives its weighted inputs in ascending input-index order, so every
// output is bit-identical to the scalar Forward loop. A layer's weights
// are packed into ws for linalg.MulABTBias; a one-node layer (the
// output) is a dot product per sample instead, linalg.GemvBiasInto, in
// the same order. Returns the rows×1 output activation.
func (n *Network) forwardBatch(ws *Workspace, x *linalg.Matrix) *linalg.Matrix {
	ws.acts[0] = linalg.Matrix{Rows: x.Rows, Cols: x.Cols, Data: x.Data}
	nl := len(n.layers)
	for li, ly := range n.layers {
		src := &ws.acts[li]
		dst := &ws.acts[li+1]
		bias := n.params[ly.bOff : ly.bOff+ly.out]
		w := n.params[ly.wOff : ly.wOff+ly.in*ly.out]
		if ly.out == 1 {
			linalg.GemvBiasInto(dst.Data, src, w, bias[0])
		} else {
			linalg.TransposeInto(&ws.wt[li], &linalg.Matrix{Rows: ly.out, Cols: ly.in, Data: w})
			linalg.MulABTBias(dst, src, &ws.wt[li], bias)
		}
		if li != nl-1 {
			if n.cfg.Activation == Tanh {
				// apply(Tanh) is math.Tanh, which linalg.Tanh gives bit
				// for bit.
				linalg.Tanh(dst.Data)
			} else {
				for i, v := range dst.Data {
					dst.Data[i] = n.cfg.Activation.apply(v)
				}
			}
		}
	}
	return &ws.acts[nl]
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
// per-sample loop accumulated them in) and a GEMM per layer for delta
// propagation. Results are bit-identical to the scalar reference; see the
// property tests. Zero heap allocations once ws is warmed.
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
	nl := len(n.layers)
	for i := range grad {
		grad[i] = 0
	}
	out := &ws.acts[nl]
	dl := &ws.deltas[nl-1]
	loss := 0.0
	for s := 0; s < x.Rows; s++ {
		diff := out.Data[s] - y[s]
		loss += diff * diff
		dl.Data[s] = diff
	}
	for li := nl - 1; li >= 0; li-- {
		ly := n.layers[li]
		delta := &ws.deltas[li]
		in := &ws.acts[li]
		gw := linalg.Matrix{Rows: ly.out, Cols: ly.in, Data: grad[ly.wOff : ly.wOff+ly.in*ly.out]}
		linalg.AccumMulATB(&gw, delta, in)
		linalg.AccumColSums(grad[ly.bOff:ly.bOff+ly.out], delta)
		if li == 0 {
			break
		}
		prev := &ws.deltas[li-1]
		for i := range prev.Data {
			prev.Data[i] = 0
		}
		wm := linalg.Matrix{Rows: ly.out, Cols: ly.in, Data: n.params[ly.wOff : ly.wOff+ly.in*ly.out]}
		linalg.AccumMatMul(prev, delta, &wm)
		pa := &ws.acts[li]
		if n.cfg.Activation == Tanh {
			// derivFromOutput(Tanh) is 1 - v*v, which MulTanhDeriv
			// multiplies by, rounding each step on its own.
			linalg.MulTanhDeriv(prev.Data, pa.Data)
		} else {
			for i, v := range pa.Data {
				prev.Data[i] *= n.cfg.Activation.derivFromOutput(v)
			}
		}
	}
	return loss
}
