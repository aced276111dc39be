package mlp

// The former per-sample (scalar) implementations live on as unexported
// reference paths here. The batched kernels must reproduce them
// bit-for-bit: every accumulator in the batched pass receives its
// floating-point contributions in the same order the scalar loops applied
// them, so equality below is exact, not approximate.

import (
	"fmt"
	"math"

	"colocmodel/internal/linalg"
)

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

// scalarLossAndGrad is the old per-sample backpropagation, verbatim.
func scalarLossAndGrad(n *Network, x *linalg.Matrix, y []float64) (float64, []float64, error) {
	if x.Cols != n.cfg.Inputs {
		return 0, nil, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	if x.Rows != len(y) {
		return 0, nil, fmt.Errorf("mlp: %d labels for %d samples", len(y), x.Rows)
	}
	grad := make([]float64, len(n.params))
	loss := 0.0
	nl := len(n.layers)
	acts := make([][]float64, nl+1)
	for s := 0; s < x.Rows; s++ {
		acts[0] = x.Data[s*x.Cols : (s+1)*x.Cols]
		for li, ly := range n.layers {
			out := make([]float64, ly.out)
			for o := 0; o < ly.out; o++ {
				sum := n.params[ly.bOff+o]
				w := n.params[ly.wOff+o*ly.in : ly.wOff+(o+1)*ly.in]
				for i, v := range acts[li] {
					sum += w[i] * v
				}
				if li == nl-1 {
					out[o] = sum
				} else {
					out[o] = n.cfg.Activation.apply(sum)
				}
			}
			acts[li+1] = out
		}
		diff := acts[nl][0] - y[s]
		loss += diff * diff
		delta := []float64{diff}
		for li := nl - 1; li >= 0; li-- {
			ly := n.layers[li]
			in := acts[li]
			for o := 0; o < ly.out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				g := grad[ly.wOff+o*ly.in : ly.wOff+(o+1)*ly.in]
				for i, v := range in {
					g[i] += d * v
				}
				grad[ly.bOff+o] += d
			}
			if li == 0 {
				break
			}
			prev := make([]float64, ly.in)
			for o := 0; o < ly.out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				w := n.params[ly.wOff+o*ly.in : ly.wOff+(o+1)*ly.in]
				for i := range prev {
					prev[i] += d * w[i]
				}
			}
			for i := range prev {
				prev[i] *= n.cfg.Activation.derivFromOutput(acts[li][i])
			}
			delta = prev
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
