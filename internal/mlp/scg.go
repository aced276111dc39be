package mlp

import (
	"fmt"
	"math"

	"colocmodel/internal/linalg"
)

// SCGConfig tunes the scaled conjugate gradient trainer.
type SCGConfig struct {
	// MaxIter bounds the number of SCG iterations (weight updates plus
	// rejected steps). Default 500; a negative value is an error.
	MaxIter int
}

func (c *SCGConfig) defaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
}

// TrainResult reports a training run.
type TrainResult struct {
	// Iterations is the number of SCG iterations executed.
	Iterations int
	// FinalLoss is the training MSE (½·mean squared error) at exit.
	FinalLoss float64
	// GradNorm is the gradient norm at exit.
	GradNorm float64
	// Converged is true if a tolerance (rather than MaxIter) ended
	// training.
	Converged bool
	// LossHistory records the loss after each accepted step.
	LossHistory []float64
}

const (
	scgSigma0     = 1e-4
	scgLambdaMin  = 1e-15
	scgLambdaMax  = 1e15
	scgFirstLamda = 1e-6
	// scgGradTol and scgLossTol end training early: when the gradient
	// norm or the loss falls to them.
	scgGradTol = 1e-6
	scgLossTol = 0
)

// TrainSCGWS trains the network on (x, y) with Møller's scaled conjugate
// gradient algorithm (Møller 1993, "A scaled conjugate gradient algorithm
// for fast supervised learning"), the method named by Section III-D. SCG
// is a second-order batch method that avoids line searches by combining a
// Hestenes–Stiefel conjugate direction with a Levenberg–Marquardt-style
// scaling of the local curvature estimate.
//
// All per-iteration state (parameter, gradient, residual and direction
// vectors plus the batched forward/backward scratch) lives in ws and is
// reused, so a warmed iteration performs zero heap allocations; pass the
// same workspace across bootstrap partitions or retrain attempts to
// amortise even the warmup. A nil ws uses a fresh private workspace.
//
// Training fails, leaving the network as it was, when the loss or the
// gradient at the starting weights is not finite: a NaN or infinite
// value in x or y, which no step could train away.
func TrainSCGWS(n *Network, x *linalg.Matrix, y []float64, cfg SCGConfig, ws *Workspace) (*TrainResult, error) {
	if cfg.MaxIter < 0 {
		return nil, fmt.Errorf("mlp: SCG MaxIter %d is negative", cfg.MaxIter)
	}
	cfg.defaults()
	if x.Rows == 0 {
		return nil, fmt.Errorf("mlp: no training samples")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	st, err := newSCGState(n, x, y, cfg, ws)
	if err != nil {
		return nil, err
	}
	for st.k < cfg.MaxIter {
		done, err := st.step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return st.finish()
}

// scgState is one SCG run's persistent state. All vectors are views into
// the workspace's scratch, swapped by pointer on accepted steps instead of
// reallocated, which is what makes step() allocation-free after warmup.
type scgState struct {
	n  *Network
	x  *linalg.Matrix
	y  []float64
	ws *Workspace

	// w holds the best accepted parameters; wScratch is overwritten by the
	// curvature probe and by each trial step (and swapped with w on
	// acceptance). grad/r are the gradient and residual at w; gradAlt/rAlt
	// receive the probe and trial values before swapping in.
	w, wScratch       []float64
	grad, gradAlt     []float64
	r, rAlt           []float64
	p                 []float64
	loss              float64
	lambda, lambdaBar float64
	delta             float64
	success           bool
	k, dim            int
	res               *TrainResult
}

func newSCGState(n *Network, x *linalg.Matrix, y []float64, cfg SCGConfig, ws *Workspace) (*scgState, error) {
	dim := n.NumParams()
	st := &scgState{n: n, x: x, y: y, ws: ws, dim: dim}
	st.w = ws.paramVec(0, dim)
	st.wScratch = ws.paramVec(1, dim)
	st.grad = ws.paramVec(2, dim)
	st.gradAlt = ws.paramVec(3, dim)
	st.r = ws.paramVec(4, dim)
	st.rAlt = ws.paramVec(5, dim)
	st.p = ws.paramVec(6, dim)
	copy(st.w, n.params)
	loss, err := n.LossAndGradWS(ws, x, y, st.grad)
	if err != nil {
		return nil, err
	}
	if gn := linalg.Norm2(st.grad); !finite(loss) || !finite(gn) {
		return nil, fmt.Errorf("mlp: initial loss %v, gradient norm %v: training data holds a NaN or infinite value", loss, gn)
	}
	for i, g := range st.grad {
		st.r[i] = -1 * g // steepest descent residual
	}
	copy(st.p, st.r)
	st.loss = loss
	st.lambda = scgFirstLamda
	st.lambdaBar = 0
	st.success = true
	st.res = &TrainResult{LossHistory: make([]float64, 0, cfg.MaxIter+1)}
	st.res.LossHistory = append(st.res.LossHistory, loss)
	return st, nil
}

// step runs one SCG iteration. It reports done=true when a tolerance is
// met; the caller bounds the iteration count.
func (s *scgState) step() (bool, error) {
	s.k++
	s.res.Iterations = s.k
	pNorm2 := linalg.Dot(s.p, s.p)
	if pNorm2 == 0 {
		s.res.Converged = true
		return true, nil
	}
	if s.success {
		// Second-order information along p via finite differences of the
		// gradient (a Hessian-vector product estimate).
		sigma := scgSigma0 / math.Sqrt(pNorm2)
		copy(s.wScratch, s.w)
		linalg.AXPY(sigma, s.p, s.wScratch)
		if err := s.n.SetParams(s.wScratch); err != nil {
			return false, err
		}
		if _, err := s.n.LossAndGradWS(s.ws, s.x, s.y, s.gradAlt); err != nil {
			return false, err
		}
		delta := 0.0
		for i := 0; i < s.dim; i++ {
			delta += s.p[i] * (s.gradAlt[i] - s.grad[i]) / sigma
		}
		s.delta = delta
	}
	// Scale the curvature (Levenberg-Marquardt regularisation).
	s.delta += (s.lambda - s.lambdaBar) * pNorm2
	if s.delta <= 0 {
		// Make the Hessian estimate positive definite.
		s.lambdaBar = 2 * (s.lambda - s.delta/pNorm2)
		s.delta = -s.delta + s.lambda*pNorm2
		s.lambda = s.lambdaBar
	}
	mu := linalg.Dot(s.p, s.r)
	alpha := mu / s.delta

	// Comparison parameter: actual vs predicted loss reduction.
	copy(s.wScratch, s.w)
	linalg.AXPY(alpha, s.p, s.wScratch)
	if err := s.n.SetParams(s.wScratch); err != nil {
		return false, err
	}
	lossNew, err := s.n.LossWS(s.ws, s.x, s.y)
	if err != nil {
		return false, err
	}
	Delta := 2 * s.delta * (s.loss - lossNew) / (mu * mu)

	if Delta >= 0 {
		// Successful step: the trial vector becomes the new w.
		s.w, s.wScratch = s.wScratch, s.w
		s.loss = lossNew
		// The gradient at the accepted parameters: LossWS left their
		// forward activations in the workspace, and a second forward
		// would reproduce them bit for bit, so only the backward pass
		// runs.
		s.n.backwardRaw(s.ws, s.x, s.y, s.gradAlt)
		linalg.Scal(1/float64(s.x.Rows), s.gradAlt)
		for i, g := range s.gradAlt {
			s.rAlt[i] = -1 * g
		}
		s.lambdaBar = 0
		s.success = true
		if s.k%s.dim == 0 {
			// Restart with steepest descent.
			copy(s.p, s.rAlt)
		} else {
			beta := (linalg.Dot(s.rAlt, s.rAlt) - linalg.Dot(s.rAlt, s.r)) / mu
			for i := range s.p {
				s.p[i] = s.rAlt[i] + beta*s.p[i]
			}
		}
		s.r, s.rAlt = s.rAlt, s.r
		s.grad, s.gradAlt = s.gradAlt, s.grad
		s.res.LossHistory = append(s.res.LossHistory, s.loss)
		if Delta >= 0.75 {
			s.lambda = math.Max(s.lambda/4, scgLambdaMin)
		}
	} else {
		// Reject: restore parameters and raise damping.
		if err := s.n.SetParams(s.w); err != nil {
			return false, err
		}
		s.lambdaBar = s.lambda
		s.success = false
	}
	if Delta < 0.25 {
		s.lambda = math.Min(s.lambda+s.delta*(1-Delta)/pNorm2, scgLambdaMax)
	}

	gn := linalg.Norm2(s.r)
	if gn <= scgGradTol || s.loss <= scgLossTol {
		s.res.Converged = true
		return true, nil
	}
	return false, nil
}

func (s *scgState) finish() (*TrainResult, error) {
	if err := s.n.SetParams(s.w); err != nil {
		return nil, err
	}
	s.res.FinalLoss = s.loss
	s.res.GradNorm = linalg.Norm2(s.r)
	return s.res, nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
