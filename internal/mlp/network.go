// Package mlp implements the neural-network modeling technique of Section
// III-D: a feed-forward network whose inputs are the features of the
// chosen Table II set, with one hidden layer of tanh nodes and a single
// linear output, the predicted co-located execution time. Networks here
// use 10–20 hidden nodes, as in the paper, and are trained with Møller's
// scaled conjugate gradient ("a scaled conjugate gradient numerical
// method was used to determine the coefficient values at each network
// node").
package mlp

import (
	"fmt"
	"math"
	"math/bits"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

// Config describes a network: Inputs → Hidden tanh nodes → one linear
// output.
type Config struct {
	// Inputs is the feature arity.
	Inputs int
	// Hidden is the hidden-layer width; the paper uses 10–20 nodes
	// depending on the feature set.
	Hidden int
	// Seed drives weight initialisation.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Inputs < 1 {
		return fmt.Errorf("mlp: need at least 1 input, got %d", c.Inputs)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("mlp: need at least 1 hidden node, got %d", c.Hidden)
	}
	return nil
}

// Network is a feed-forward regression network with one tanh hidden layer
// and a single linear output. Parameters live in one flat vector so
// optimisers can treat the network as a black-box differentiable
// function; split names its parts.
type Network struct {
	cfg    Config
	params []float64
}

// New builds a network with Xavier/Glorot-scaled random initial weights.
func New(cfg Config) (*Network, error) {
	size, err := paramCount(cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, params: make([]float64, size)}
	hw, _, ow, _ := n.split(n.params)
	src := xrand.New(cfg.Seed)
	draw := func(w []float64, fanIn, fanOut int) {
		scale := math.Sqrt(2.0 / float64(fanIn+fanOut))
		for i := range w {
			w[i] = src.Normal(0, scale)
		}
	}
	// Biases start at zero.
	draw(hw, cfg.Inputs, cfg.Hidden)
	draw(ow, cfg.Hidden, 1)
	return n, nil
}

// FromParams builds a network of shape cfg holding a copy of params,
// which must be exactly the parameter vector that shape declares. It is
// how a saved network is restored: the declared shape is checked against
// len(params) before anything is allocated, so a hostile shape cannot
// request more memory than the parameters it arrived with.
func FromParams(cfg Config, params []float64) (*Network, error) {
	size, err := paramCount(cfg)
	if err != nil {
		return nil, err
	}
	if size != len(params) {
		return nil, fmt.Errorf("mlp: %d params, network has %d", len(params), size)
	}
	return &Network{cfg: cfg, params: append([]float64(nil), params...)}, nil
}

// paramCount validates cfg and returns the length of its parameter
// vector, Hidden·(Inputs+2) + 1, computed with overflow checks so no shape
// can wrap it.
func paramCount(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	hi, lo := bits.Mul64(uint64(cfg.Hidden), uint64(cfg.Inputs)+2)
	if hi != 0 || lo >= math.MaxInt {
		return 0, fmt.Errorf("mlp: network shape %d→%d→1 has too many parameters", cfg.Inputs, cfg.Hidden)
	}
	return int(lo) + 1, nil
}

// split cuts a parameter-length vector (the parameters or a gradient)
// into the hidden weights (Hidden × Inputs, row-major by hidden node),
// the hidden biases, the output weights and the one-element output bias,
// in that order.
func (n *Network) split(v []float64) (hw, hb, ow, ob []float64) {
	in, h := n.cfg.Inputs, n.cfg.Hidden
	return v[:h*in], v[h*in : h*(in+1)], v[h*(in+1) : h*(in+2)], v[h*(in+2):]
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
	hw, hb, ow, ob := n.split(n.params)
	out := ob[0]
	for o, b := range hb {
		s := b
		for i, v := range x {
			s += hw[o*len(x)+i] * v
		}
		out += ow[o] * math.Tanh(s)
	}
	return out, nil
}

// PredictBatch evaluates the network on every row of x: one GEMM per
// layer over the whole batch (see batch.go), bit-identical to calling
// Forward per row.
func (n *Network) PredictBatch(x *linalg.Matrix) ([]float64, error) {
	if x.Cols != n.cfg.Inputs {
		return nil, fmt.Errorf("mlp: matrix has %d columns, network expects %d", x.Cols, n.cfg.Inputs)
	}
	var ws Workspace
	ws.ensure(n, x.Rows)
	return append([]float64(nil), n.forwardBatch(&ws, x).Data...), nil
}
