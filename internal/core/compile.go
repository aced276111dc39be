package core

import (
	"fmt"

	"colocmodel/internal/features"
	"colocmodel/internal/linalg"
)

// The model compiler. The predict path is the product's hot loop: every
// serving, placement and retraining tier funnels through Predict,
// PredictScenarios or PredictIDsInto, and the paper's value proposition
// — cheap what-if prediction replacing measurement — only holds while
// that loop is cheap.
// The interpreted path walks the feature Set, hashes baseline names into
// a map per feature, allocates a vector per scenario and dispatches
// through the generic technique switch; compileProgram instead specialises
// a trained model once, at train/load time, into a fused program. Every
// Model carries one: LoadModel and Train refuse a model that does not
// compile.
//
//   - the feature pipeline is flattened into a fixed op table over a
//     baked per-app fact table indexed by the model's application ids
//     (AppID): every baseline is looked up once, at compile time, and the
//     op table evaluates rows of ids with no map lookup at all. The name
//     entry points resolve each name to its id once, then run the id
//     path; PredictIDsInto takes rows a caller resolved itself;
//   - a linear model folds to a single dot product over that vector;
//   - a neural model's standardise → tanh hidden layer → linear output →
//     de-standardise chain is one fused closure over preallocated
//     fixed-width scratch, so the scalar path performs zero heap
//     allocations and no interface or switch dispatch per node;
//   - the batched path fills a reusable design matrix and evaluates one
//     kernel per layer: linalg.MulABTBias over the hidden weights,
//     packed in × out once here, and linalg.GemvBiasInto for the
//     one-node output layer, four rows at a time; every hidden tanh,
//     batched or scalar, is one linalg.Tanh call over the layer,
//     math.Tanh bit for bit.
//
// Reproducibility contract: every compiled evaluation applies exactly the
// floating-point operations of the interpreted path in exactly the same
// order, so compiled results are bit-for-bit identical to interpreted
// ones — scalar, batched, and PredictScenarios alike. The property-test
// harness (internal/testeq) proves this over randomly generated models;
// do not change accumulation order here without extending it.

// featOpKind is the opcode of one compiled feature column.
type featOpKind uint8

const (
	opBaseExTime featOpKind = iota // target baseline seconds at scenario P-state
	opNumCoApp                     // float64(len(CoApps))
	opTargetStat                   // one baked per-app stat of the target
	opCoSumStat                    // sum of one baked stat over the co-apps
	opProduct                      // product of two previously evaluated operands
)

// appStat indexes the baked per-app stats (appFacts.stats).
type appStat uint8

const (
	statMem appStat = iota
	statCMCA
	statCAINS
	numAppStats
)

// featOp is one column of the compiled feature pipeline. For opProduct,
// a and b index the two operand slots in the op table's prefix (operands
// are compiled ahead of the product, mirroring how the interpreted path
// computes interaction terms from the same Value calls).
type featOp struct {
	kind featOpKind
	stat appStat
	a, b int
}

// appFacts is the baked baseline of one application: everything the
// feature pipeline can ask about it, resolved from the baseline store
// once at compile time.
type appFacts struct {
	secondsByPState []float64
	stats           [numAppStats]float64
}

// program is the immutable, shareable half of a compiled model: the op
// table, the baked fact table, and the technique's folded parameters.
// Every pooled instance of the model shares one program.
type program struct {
	space   *appSpace  // the model's id space
	apps    []appFacts // indexed by application id
	pstates int

	// ops has one entry per base feature (the first width entries feed
	// the design vector directly) followed by any interaction operand ops;
	// cols lists, per design-vector column, the op slot that produces it.
	ops  []featOp
	cols []int
	// usesCo marks programs with at least one co-app sum op: only those
	// resolve or read co-apps, preserving the interpreted path's behaviour
	// of never touching co-app baselines when no feature reads them.
	usesCo bool

	// Linear technique: Eq. 1 folded to a dot product.
	coef     []float64
	constant float64

	// Neural technique: the network's parameters sliced out of its flat
	// vector as mlp lays them out, plus the fitted scalers.
	hw    []float64     // hidden weights: hidden × width, row-major by node
	hb    []float64     // hidden biases
	hwt   linalg.Matrix // hw packed width × hidden, once, for linalg.MulABTBias
	ow    []float64     // output weights
	ob    float64       // output bias
	xMean []float64
	xStd  []float64
	yMean float64
	yStd  float64
}

// width returns the design-vector width the program expects.
func (p *program) width() int { return len(p.cols) }

// compileProgram specialises a trained model. It never panics: a model
// whose shape is inconsistent yields an error, which LoadModel and Train
// return instead of a model.
func (m *Model) compileProgram() (*program, error) {
	if m.baselines == nil {
		return nil, fmt.Errorf("core: compile: model has no baseline store")
	}
	if len(m.baselines.PStateFreqs) == 0 {
		return nil, fmt.Errorf("core: compile: model has no P-state table")
	}
	set := m.Spec.FeatureSet
	if len(set.Features) == 0 {
		return nil, fmt.Errorf("core: compile: empty feature set")
	}
	p := &program{
		space:   m.space,
		apps:    make([]appFacts, 0, len(m.space.names)),
		pstates: len(m.baselines.PStateFreqs),
	}
	// Bake the fact table in id order: one baseline lookup per app name,
	// forever.
	for _, name := range m.space.names {
		b, err := m.baselines.Baseline(name)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		if len(b.SecondsByPState) != p.pstates {
			return nil, fmt.Errorf("core: compile: baseline %q covers %d P-states; machine has %d",
				name, len(b.SecondsByPState), p.pstates)
		}
		f := appFacts{secondsByPState: b.SecondsByPState}
		f.stats[statMem] = b.MemIntensity
		f.stats[statCMCA] = b.CMPerCA
		f.stats[statCAINS] = b.CAPerIns
		p.apps = append(p.apps, f)
	}
	// Flatten the feature pipeline. Base features first (design-vector
	// order), then interaction products, whose operands reuse a base
	// feature's op when present and get a private operand op otherwise —
	// the same values features.Vector computes, in the same column order.
	baseSlot := make(map[features.Feature]int, len(set.Features))
	for _, f := range set.Features {
		op, err := compileFeature(f)
		if err != nil {
			return nil, err
		}
		slot := len(p.ops)
		p.ops = append(p.ops, op)
		p.cols = append(p.cols, slot)
		if _, dup := baseSlot[f]; !dup {
			baseSlot[f] = slot
		}
	}
	operand := func(f features.Feature) (int, error) {
		if slot, ok := baseSlot[f]; ok {
			return slot, nil
		}
		op, err := compileFeature(f)
		if err != nil {
			return 0, err
		}
		p.ops = append(p.ops, op)
		return len(p.ops) - 1, nil
	}
	for _, pair := range set.Interactions {
		a, err := operand(pair[0])
		if err != nil {
			return nil, err
		}
		b, err := operand(pair[1])
		if err != nil {
			return nil, err
		}
		p.ops = append(p.ops, featOp{kind: opProduct, a: a, b: b})
		p.cols = append(p.cols, len(p.ops)-1)
	}
	for _, op := range p.ops {
		if op.kind == opCoSumStat {
			p.usesCo = true
		}
	}
	width := p.width()

	switch {
	case m.lin != nil:
		if len(m.lin.Coefficients) != width {
			return nil, fmt.Errorf("core: compile: linear model has %d coefficients for width %d",
				len(m.lin.Coefficients), width)
		}
		p.coef = m.lin.Coefficients
		p.constant = m.lin.Constant
	case m.net != nil:
		if m.xScaler == nil || m.yScaler == nil {
			return nil, fmt.Errorf("core: compile: neural model missing scalers")
		}
		if len(m.xScaler.Mean) != width || len(m.xScaler.Std) != width {
			return nil, fmt.Errorf("core: compile: input scaler has %d means and %d deviations for width %d",
				len(m.xScaler.Mean), len(m.xScaler.Std), width)
		}
		cfg := m.net.Config()
		if cfg.Inputs != width {
			return nil, fmt.Errorf("core: compile: network expects %d inputs for width %d", cfg.Inputs, width)
		}
		p.xMean, p.xStd = m.xScaler.Mean, m.xScaler.Std
		p.yMean, p.yStd = m.yScaler.Mean, m.yScaler.Std
		// mlp's layout: hidden weights, hidden biases, output weights,
		// output bias.
		params, h := m.net.Params(), cfg.Hidden
		p.hw = params[:h*width]
		p.hb = params[h*width : h*(width+1)]
		p.ow = params[h*(width+1) : h*(width+2)]
		p.ob = params[h*(width+2)]
		p.hwt = *linalg.NewMatrix(width, h)
		linalg.TransposeInto(&p.hwt, &linalg.Matrix{Rows: h, Cols: width, Data: p.hw})
	default:
		return nil, fmt.Errorf("core: compile: model %s not trained", m.Spec)
	}
	return p, nil
}

// compileFeature maps one Table I feature to its opcode.
func compileFeature(f features.Feature) (featOp, error) {
	switch f {
	case features.BaseExTime:
		return featOp{kind: opBaseExTime}, nil
	case features.NumCoApp:
		return featOp{kind: opNumCoApp}, nil
	case features.TargetMem:
		return featOp{kind: opTargetStat, stat: statMem}, nil
	case features.TargetCMCA:
		return featOp{kind: opTargetStat, stat: statCMCA}, nil
	case features.TargetCAINS:
		return featOp{kind: opTargetStat, stat: statCAINS}, nil
	case features.CoAppMem:
		return featOp{kind: opCoSumStat, stat: statMem}, nil
	case features.CoAppCMCA:
		return featOp{kind: opCoSumStat, stat: statCMCA}, nil
	case features.CoAppCAINS:
		return featOp{kind: opCoSumStat, stat: statCAINS}, nil
	default:
		return featOp{}, fmt.Errorf("core: compile: unknown feature %d", int(f))
	}
}

// evalOps evaluates the op table for one row of ids into vals (length
// len(p.ops)). All three co-app stat sums are accumulated in one pass
// over the co-apps — each sum still receives its terms in CoApps order
// with exactly the additions features.Value applies, so every slot is
// bit-identical to the interpreted feature pipeline. An id outside the
// space fails where the name it stands for would: always as the target,
// as a co-app only when a feature reads co-apps.
func (p *program) evalOps(row IDScenario, vals []float64) error {
	if uint32(row.Target) >= uint32(len(p.apps)) {
		return fmt.Errorf("core: no application with id %d (the model has %d)", row.Target, len(p.apps))
	}
	target := &p.apps[row.Target]
	var coSums [numAppStats]float64
	if p.usesCo {
		for _, id := range row.CoApps {
			if uint32(id) >= uint32(len(p.apps)) {
				return fmt.Errorf("core: no application with id %d (the model has %d)", id, len(p.apps))
			}
			st := &p.apps[id].stats
			coSums[statMem] += st[statMem]
			coSums[statCMCA] += st[statCMCA]
			coSums[statCAINS] += st[statCAINS]
		}
	}
	for i := range p.ops {
		op := &p.ops[i]
		switch op.kind {
		case opBaseExTime:
			if row.PState < 0 || row.PState >= p.pstates {
				return fmt.Errorf("core: P-state %d not in baseline for %s", row.PState, p.space.names[row.Target])
			}
			vals[i] = target.secondsByPState[row.PState]
		case opNumCoApp:
			vals[i] = float64(len(row.CoApps))
		case opTargetStat:
			vals[i] = target.stats[op.stat]
		case opCoSumStat:
			vals[i] = coSums[op.stat]
		default: // opProduct
			vals[i] = vals[op.a] * vals[op.b]
		}
	}
	return nil
}

// gather copies the design-vector columns out of an evaluated op table.
// For programs without interactions cols is the identity over the ops
// prefix, so the copy is a straight prefix move.
func (p *program) gather(vals, row []float64) {
	for j, slot := range p.cols {
		row[j] = vals[slot]
	}
}

// instance is one worker's copy of a compiled model: the shared
// immutable program plus private scratch, evaluated by fused closures.
// It is not goroutine-safe; the model keeps a pool of them (Model.cpool)
// and every entry point checks one out per call. A warm instance
// predicts — scalar or batched — with zero heap allocations.
type instance struct {
	prog *program

	// scalar is the fused scalar closure: design vector in, prediction
	// out. Built once at compile time with the model's exact widths.
	scalar func(row []float64) float64

	rows []IDScenario // rows resolved from names
	co   []int32      // their co-app ids
	vals []float64    // op-table scratch
	row  []float64    // design vector scratch

	// Batched scratch (grown on first batch, reused after).
	x   linalg.Matrix // design matrix
	hid linalg.Matrix // hidden-layer outputs
}

// newInstance builds a worker instance over a program.
func newInstance(p *program) *instance {
	c := &instance{
		prog: p,
		vals: make([]float64, len(p.ops)),
		row:  make([]float64, p.width()),
	}
	if p.coef != nil {
		coef, constant := p.coef, p.constant
		// Eq. 1 folded to a single dot product: the sum starts at the
		// constant and adds terms in feature order, exactly as
		// linreg.Model.Predict does.
		c.scalar = func(row []float64) float64 {
			s := constant
			for j, f := range row {
				s += coef[j] * f
			}
			return s
		}
		return c
	}
	c.scalar = compileNetScalar(p)
	return c
}

// compileNetScalar fuses standardise → hidden layer → output →
// de-standardise into one closure over its own scratch, with no per-node
// dispatch of any kind: it writes the hidden pre-activations into the
// scratch, then activates them all with one linalg.Tanh call, which is
// math.Tanh bit for bit. It reproduces predictVector's arithmetic order
// exactly.
func compileNetScalar(p *program) func(row []float64) float64 {
	mean, std := p.xMean, p.xStd
	yMean, yStd := p.yMean, p.yStd
	hw, hb, ow, ob := p.hw, p.hb, p.ow, p.ob
	z, a := make([]float64, p.width()), make([]float64, len(hb))
	in := len(z)
	return func(row []float64) float64 {
		for j, v := range row {
			z[j] = (v - mean[j]) / std[j]
		}
		for o := range a {
			s := hb[o]
			w := hw[o*in : (o+1)*in]
			for i, v := range z {
				s += w[i] * v
			}
			a[o] = s
		}
		linalg.Tanh(a)
		s := ob
		for i, v := range a {
			s += ow[i] * v
		}
		return s*yStd + yMean
	}
}

// growMat resizes m to r×c, reusing its backing array when large enough.
func growMat(m *linalg.Matrix, r, cDim int) {
	if cap(m.Data) < r*cDim {
		m.Data = make([]float64, r*cDim)
	}
	m.Data = m.Data[:r*cDim]
	m.Rows, m.Cols = r, cDim
}

// resolve maps scs' names to rows of ids in the instance's scratch. It
// stops at the first unknown name and returns the rows before it with
// the error the interpreted feature pipeline gives for that name: always
// for the target, for a co-app only when a feature sums over co-apps. A
// co-app no feature reads is not looked up; its id is -1, which nothing
// reads either.
func (c *instance) resolve(scs []features.Scenario) ([]IDScenario, error) {
	p := c.prog
	n := 0
	for _, sc := range scs {
		n += len(sc.CoApps)
	}
	if cap(c.co) < n {
		c.co = make([]int32, n)
	}
	if cap(c.rows) < len(scs) {
		c.rows = make([]IDScenario, len(scs))
	}
	co, rows := c.co[:0], c.rows[:0]
	for _, sc := range scs {
		ti, ok := p.space.ids[sc.Target]
		if !ok {
			return rows, fmt.Errorf("core: no baseline for application %q", sc.Target)
		}
		start := len(co)
		for _, name := range sc.CoApps {
			id := int32(-1)
			if p.usesCo {
				if id, ok = p.space.ids[name]; !ok {
					return rows, fmt.Errorf("core: no baseline for application %q", name)
				}
			}
			co = append(co, id)
		}
		rows = append(rows, IDScenario{Target: ti, CoApps: co[start:], PState: sc.PState})
	}
	return rows, nil
}

// predictIDs is the one fill loop behind every entry point: each row's
// op table is evaluated into the design matrix, stopping at the first
// failing row, and the technique runs once over the batch. A lone row
// takes the fused scalar closure, which is bit-identical to the batched
// kernels and cheaper for one row.
func (c *instance) predictIDs(rows []IDScenario, out []float64) error {
	if len(out) != len(rows) {
		return fmt.Errorf("core: output length %d for %d scenarios", len(out), len(rows))
	}
	p := c.prog
	switch len(rows) {
	case 0:
		return nil
	case 1:
		if err := p.evalOps(rows[0], c.vals); err != nil {
			return err
		}
		p.gather(c.vals, c.row)
		out[0] = c.scalar(c.row)
		return nil
	}
	width := p.width()
	growMat(&c.x, len(rows), width)
	for i, row := range rows {
		if err := p.evalOps(row, c.vals); err != nil {
			return err
		}
		p.gather(c.vals, c.x.Data[i*width:(i+1)*width])
	}
	c.forward(out)
	return nil
}

// forward runs the technique over the filled design matrix into out.
func (c *instance) forward(out []float64) {
	p := c.prog
	width := p.width()
	if p.coef != nil {
		linalg.GemvBiasInto(out, &c.x, p.coef, p.constant)
		return
	}
	// Standardise in place (the matrix is private scratch), then one
	// bias-seeded GEMM per layer — the same element-wise operations, in
	// the same order, as Scaler.Transform followed by mlp's forwardBatch.
	for i := 0; i < c.x.Rows; i++ {
		rowD := c.x.Data[i*width : (i+1)*width]
		for j, v := range rowD {
			rowD[j] = (v - p.xMean[j]) / p.xStd[j]
		}
	}
	growMat(&c.hid, len(out), len(p.hb))
	linalg.MulABTBias(&c.hid, &c.x, &p.hwt, p.hb)
	linalg.Tanh(c.hid.Data)
	// The one-node output layer: a dot product per row, four rows at a
	// time, straight into out.
	linalg.GemvBiasInto(out, &c.hid, p.ow, p.ob)
	for i, v := range out {
		out[i] = v*p.yStd + p.yMean
	}
}

// ---- Model integration ----

// initCompiled builds the model's id space and specialises the model
// after training or loading. Its error is the compiler's, which LoadModel
// and Train return instead of the model: every Model that exists carries
// a program.
func (m *Model) initCompiled() error {
	m.space = newAppSpace(m.baselines)
	p, err := m.compileProgram()
	if err != nil {
		return err
	}
	m.prog = p
	m.cpool.New = func() any { return newInstance(p) }
	return nil
}

// checkout takes a worker instance from the pool; the caller puts it back.
// Only the zero Model has no program.
func (m *Model) checkout() (*instance, error) {
	if m.prog == nil {
		return nil, fmt.Errorf("core: model %s not trained", m.Spec)
	}
	return m.cpool.Get().(*instance), nil
}
