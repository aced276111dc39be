// Package mlp implements the neural-network modeling technique of Section
// III-D: a feed-forward network whose inputs are the features of the
// chosen Table II set and whose single linear output is the predicted
// co-located execution time. Networks here use 10–20 hidden nodes, as in
// the paper, and are trained with Møller's scaled conjugate gradient
// ("a scaled conjugate gradient numerical method was used to determine the
// coefficient values at each network node").
package mlp

import (
	"fmt"
	"math"
	"math/bits"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Tanh is the default and what the experiments use.
	Tanh Activation = iota
	// Sigmoid is the logistic function.
	Sigmoid
	// ReLU is max(0, x).
	ReLU
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply evaluates the activation at x. Exported for the compiled predict
// path (internal/core), which resolves the activation once at compile
// time and must then apply exactly the same function the interpreted
// forward pass uses.
func (a Activation) Apply(x float64) float64 { return a.apply(x) }

func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return math.Tanh(x)
	}
}

// derivFromOutput returns f'(x) given f(x) (all three activations allow
// this form, which avoids recomputing the pre-activation).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1 - y*y
	}
}

// Config describes a network.
type Config struct {
	// Inputs is the feature arity.
	Inputs int
	// Hidden lists hidden-layer widths; the paper uses one layer of
	// 10–20 nodes depending on the feature set.
	Hidden []int
	// Activation is the hidden nonlinearity (output is always linear,
	// as appropriate for regression).
	Activation Activation
	// Seed drives weight initialisation.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Inputs < 1 {
		return fmt.Errorf("mlp: need at least 1 input, got %d", c.Inputs)
	}
	if len(c.Hidden) == 0 {
		return fmt.Errorf("mlp: need at least one hidden layer")
	}
	for i, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("mlp: hidden layer %d has %d nodes", i, h)
		}
	}
	if c.Activation < Tanh || c.Activation > ReLU {
		return fmt.Errorf("mlp: unknown activation %d", int(c.Activation))
	}
	return nil
}

// layer is one dense layer's parameter layout inside the flat vector.
type layer struct {
	in, out int
	wOff    int // weights offset: out × in, row-major by output node
	bOff    int // bias offset: out
}

// Network is a feed-forward regression network with a single linear
// output. Parameters live in one flat vector so optimisers can treat the
// network as a black-box differentiable function.
type Network struct {
	cfg    Config
	layers []layer
	params []float64
}

// New builds a network with Xavier/Glorot-scaled random initial weights.
func New(cfg Config) (*Network, error) {
	n, size, err := newShape(cfg)
	if err != nil {
		return nil, err
	}
	n.params = make([]float64, size)
	src := xrand.New(cfg.Seed)
	for _, ly := range n.layers {
		scale := math.Sqrt(2.0 / float64(ly.in+ly.out))
		for i := 0; i < ly.in*ly.out; i++ {
			n.params[ly.wOff+i] = src.Normal(0, scale)
		}
		// Biases start at zero.
	}
	return n, nil
}

// FromParams builds a network of shape cfg holding a copy of params,
// which must be exactly the parameter vector that shape declares. It is
// how a saved network is restored: the declared shape is checked against
// len(params) before anything is allocated, so a hostile shape cannot
// request more memory than the parameters it arrived with.
func FromParams(cfg Config, params []float64) (*Network, error) {
	n, size, err := newShape(cfg)
	if err != nil {
		return nil, err
	}
	if size != len(params) {
		return nil, fmt.Errorf("mlp: %d params, network has %d", len(params), size)
	}
	n.params = append([]float64(nil), params...)
	return n, nil
}

// newShape validates cfg and lays out its layers in the flat parameter
// vector, returning the network without parameters and the vector's
// length. The length is computed with overflow checks, so no shape can
// wrap it.
func newShape(cfg Config) (*Network, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	sizes := append([]int{cfg.Inputs}, cfg.Hidden...)
	sizes = append(sizes, 1) // linear output
	n := &Network{cfg: cfg}
	off := 0
	for l := 0; l+1 < len(sizes); l++ {
		ly := layer{in: sizes[l], out: sizes[l+1], wOff: off}
		// The layer holds out·(in+1) parameters: weights and biases.
		hi, lo := bits.Mul64(uint64(ly.out), uint64(ly.in)+1)
		if hi != 0 || lo > uint64(math.MaxInt-off) {
			return nil, 0, fmt.Errorf("mlp: network shape %d→%v→1 has too many parameters", cfg.Inputs, cfg.Hidden)
		}
		ly.bOff = off + ly.in*ly.out
		off += int(lo)
		n.layers = append(n.layers, ly)
	}
	return n, off, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NumParams returns the parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// Params returns a copy of the flat parameter vector.
func (n *Network) Params() []float64 {
	return append([]float64(nil), n.params...)
}

// SetParams overwrites the parameter vector.
func (n *Network) SetParams(p []float64) error {
	if len(p) != len(n.params) {
		return fmt.Errorf("mlp: %d params, network has %d", len(p), len(n.params))
	}
	copy(n.params, p)
	return nil
}

// Forward computes the network output for one input vector.
func (n *Network) Forward(x []float64) (float64, error) {
	if len(x) != n.cfg.Inputs {
		return 0, fmt.Errorf("mlp: %d inputs, network expects %d", len(x), n.cfg.Inputs)
	}
	act := x
	for li, ly := range n.layers {
		next := make([]float64, ly.out)
		for o := 0; o < ly.out; o++ {
			s := n.params[ly.bOff+o]
			w := n.params[ly.wOff+o*ly.in : ly.wOff+(o+1)*ly.in]
			for i, v := range act {
				s += w[i] * v
			}
			if li == len(n.layers)-1 {
				next[o] = s // linear output
			} else {
				next[o] = n.cfg.Activation.apply(s)
			}
		}
		act = next
	}
	return act[0], nil
}

// PredictBatch evaluates the network on every row of x. It is the
// allocating convenience wrapper over PredictBatchWS: one GEMM per layer
// over the whole batch (see batch.go), bit-identical to calling Forward
// per row.
func (n *Network) PredictBatch(x *linalg.Matrix) ([]float64, error) {
	var ws Workspace
	out := make([]float64, x.Rows)
	if err := n.PredictBatchWS(&ws, x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Loss returns the mean squared error ½·mean((pred−y)²) at the current
// parameters. Allocating wrapper over LossWS.
func (n *Network) Loss(x *linalg.Matrix, y []float64) (float64, error) {
	var ws Workspace
	return n.LossWS(&ws, x, y)
}

// LossAndGrad computes the loss and its gradient with respect to the flat
// parameter vector by reverse-mode differentiation (backpropagation).
// Allocating wrapper over LossAndGradWS; the batched backward pass applies
// per-sample contributions in the same order as the former per-sample
// loop, so gradients are bit-identical to the scalar reference kept in
// the tests.
func (n *Network) LossAndGrad(x *linalg.Matrix, y []float64) (float64, []float64, error) {
	var ws Workspace
	grad := make([]float64, len(n.params))
	loss, err := n.LossAndGradWS(&ws, x, y, grad)
	if err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	out := &Network{cfg: n.cfg, layers: append([]layer(nil), n.layers...)}
	out.params = append([]float64(nil), n.params...)
	return out
}
