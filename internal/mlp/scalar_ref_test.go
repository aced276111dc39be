package mlp

// The former per-sample (scalar) implementations live on as unexported
// reference paths here. The batched kernels must reproduce them
// bit-for-bit: every accumulator in the batched pass receives its
// floating-point contributions in the same order the scalar loops applied
// them, so equality below is exact, not approximate.

import (
	"fmt"
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"colocmodel/internal/linalg"
)

// useMatKernel is linalg's unexported switch between its AVX2 matrix
// kernels and its Go loops, so the reference comparisons below can run
// on both.
//
//go:linkname useMatKernel colocmodel/internal/linalg.useMatKernel
var useMatKernel bool

// TestScalarReferenceOnGoLoops reruns the scalar-reference comparisons
// with linalg's Go loops; the tests themselves run on whichever path init
// selected, the AVX2 kernels on an AVX2 host.
func TestScalarReferenceOnGoLoops(t *testing.T) {
	saved := useMatKernel
	useMatKernel = false
	t.Cleanup(func() { useMatKernel = saved })
	t.Run("BatchedMatchesScalarProperty", TestBatchedMatchesScalarProperty)
	t.Run("TrainSCGMatchesScalarReference", TestTrainSCGMatchesScalarReference)
}

// scalarPredictBatch is the old PredictBatch: one Forward call per row.
func scalarPredictBatch(n *Network, x *linalg.Matrix) ([]float64, error) {
	if x.Cols != n.cfg.Inputs {
		return nil, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		v, err := n.Forward(x.Data[i*x.Cols : (i+1)*x.Cols])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// scalarLoss is the old Loss built on scalarPredictBatch.
func scalarLoss(n *Network, x *linalg.Matrix, y []float64) (float64, error) {
	pred, err := scalarPredictBatch(n, x)
	if err != nil {
		return 0, err
	}
	if len(y) != len(pred) {
		return 0, fmt.Errorf("mlp: %d labels for %d samples", len(y), len(pred))
	}
	s := 0.0
	for i, p := range pred {
		d := p - y[i]
		s += d * d
	}
	return s / (2 * float64(len(y))), nil
}

// scalarLossAndGrad is the old per-sample backpropagation through the
// one tanh hidden layer and the linear output node.
func scalarLossAndGrad(n *Network, x *linalg.Matrix, y []float64) (float64, []float64, error) {
	if x.Cols != n.cfg.Inputs {
		return 0, nil, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	if x.Rows != len(y) {
		return 0, nil, fmt.Errorf("mlp: %d labels for %d samples", len(y), x.Rows)
	}
	grad := make([]float64, len(n.params))
	hw, hb, ow, ob := n.split(n.params)
	gw, gb, gow, gob := n.split(grad)
	in, h := n.cfg.Inputs, n.cfg.Hidden
	loss := 0.0
	for s := 0; s < x.Rows; s++ {
		xs := x.Data[s*in : (s+1)*in]
		act := make([]float64, h)
		for o := range act {
			sum := hb[o]
			for i, v := range xs {
				sum += hw[o*in+i] * v
			}
			act[o] = math.Tanh(sum)
		}
		out := ob[0]
		for i, v := range act {
			out += ow[i] * v
		}
		d := out - y[s]
		loss += d * d
		if d == 0 {
			continue
		}
		for i, v := range act {
			gow[i] += d * v
		}
		gob[0] += d
		for o, v := range act {
			dh := d * ow[o]
			dh *= 1 - v*v
			if dh == 0 {
				continue
			}
			g := gw[o*in : (o+1)*in]
			for i, xv := range xs {
				g[i] += dh * xv
			}
			gb[o] += dh
		}
	}
	inv := 1 / float64(x.Rows)
	loss *= 0.5 * inv
	for i := range grad {
		grad[i] *= inv
	}
	return loss, grad, nil
}

// scalarTrainSCG is the old allocating, sample-at-a-time TrainSCG,
// verbatim. The batched TrainSCG must reproduce its parameter trajectory
// bit-for-bit; it also anchors the old-vs-new training benchmarks.
func scalarTrainSCG(n *Network, x *linalg.Matrix, y []float64, cfg SCGConfig) (*TrainResult, error) {
	cfg.defaults()
	if x.Rows == 0 {
		return nil, fmt.Errorf("mlp: no training samples")
	}

	const (
		sigma0     = 1e-4
		lambdaMin  = 1e-15
		lambdaMax  = 1e15
		firstLamda = 1e-6
	)

	w := n.Params()
	dim := len(w)

	loss, grad, err := scalarLossAndGrad(n, x, y)
	if err != nil {
		return nil, err
	}
	r := negated(grad)
	p := append([]float64(nil), r...)
	lambda := firstLamda
	lambdaBar := 0.0
	success := true
	res := &TrainResult{LossHistory: []float64{loss}}

	var delta float64
	for k := 1; k <= cfg.MaxIter; k++ {
		res.Iterations = k
		pNorm2 := linalg.Dot(p, p)
		if pNorm2 == 0 {
			res.Converged = true
			break
		}
		if success {
			sigma := sigma0 / math.Sqrt(pNorm2)
			wProbe := append([]float64(nil), w...)
			linalg.AXPY(sigma, p, wProbe)
			if err := n.SetParams(wProbe); err != nil {
				return nil, err
			}
			_, gradProbe, err := scalarLossAndGrad(n, x, y)
			if err != nil {
				return nil, err
			}
			delta = 0
			for i := 0; i < dim; i++ {
				delta += p[i] * (gradProbe[i] - grad[i]) / sigma
			}
		}
		delta += (lambda - lambdaBar) * pNorm2
		if delta <= 0 {
			lambdaBar = 2 * (lambda - delta/pNorm2)
			delta = -delta + lambda*pNorm2
			lambda = lambdaBar
		}
		mu := linalg.Dot(p, r)
		alpha := mu / delta

		wNew := append([]float64(nil), w...)
		linalg.AXPY(alpha, p, wNew)
		if err := n.SetParams(wNew); err != nil {
			return nil, err
		}
		lossNew, err := scalarLoss(n, x, y)
		if err != nil {
			return nil, err
		}
		Delta := 2 * delta * (loss - lossNew) / (mu * mu)

		if Delta >= 0 {
			w = wNew
			loss = lossNew
			_, gradNew, err := scalarLossAndGrad(n, x, y)
			if err != nil {
				return nil, err
			}
			rNew := negated(gradNew)
			lambdaBar = 0
			success = true
			if k%dim == 0 {
				p = append([]float64(nil), rNew...)
			} else {
				beta := (linalg.Dot(rNew, rNew) - linalg.Dot(rNew, r)) / mu
				for i := range p {
					p[i] = rNew[i] + beta*p[i]
				}
			}
			r = rNew
			grad = gradNew
			res.LossHistory = append(res.LossHistory, loss)
			if Delta >= 0.75 {
				lambda = math.Max(lambda/4, lambdaMin)
			}
		} else {
			if err := n.SetParams(w); err != nil {
				return nil, err
			}
			lambdaBar = lambda
			success = false
		}
		if Delta < 0.25 {
			lambda = math.Min(lambda+delta*(1-Delta)/pNorm2, lambdaMax)
		}

		gn := linalg.Norm2(r)
		if gn <= scgGradTol || loss <= scgLossTol {
			res.Converged = true
			break
		}
	}
	if err := n.SetParams(w); err != nil {
		return nil, err
	}
	res.FinalLoss = loss
	res.GradNorm = linalg.Norm2(r)
	return res, nil
}

// negated returns −v as a new slice.
func negated(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -1 * x
	}
	return out
}

// clone returns a deep copy of the network, so two trainers can start
// from identical weights.
func clone(n *Network) *Network {
	return &Network{cfg: n.cfg, params: append([]float64(nil), n.params...)}
}
