// Package core implements the paper's primary contribution: the
// methodology for building co-location aware performance models.
//
// A model is a (technique × feature set) pair — Section V evaluates twelve
// of them: linear regression (Section III-C) and a scaled-conjugate-
// gradient neural network (Section III-D), each over the six Table II
// feature sets A–F. A trained model predicts the execution time a target
// application will have when co-located with a given set of applications
// at a given P-state, using only the target's and co-runners' baseline
// measurements.
//
// Evaluation follows Section IV-B4: repeated random sub-sampling with 30 %
// of records withheld per partition, one hundred partitions, errors
// averaged across partitions and reported as MPE (Eq. 2) and NRMSE
// (Eq. 3). Partitions are independent, so Evaluate trains them in
// parallel across the available cores.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/linalg"
	"colocmodel/internal/linreg"
	"colocmodel/internal/mlp"
	"colocmodel/internal/stats"
	"colocmodel/internal/xrand"
)

// Technique is a modeling technique from Section III.
type Technique int

const (
	// Linear is least-squares linear regression (Eq. 1).
	Linear Technique = iota
	// NeuralNet is the feed-forward network trained with scaled
	// conjugate gradient.
	NeuralNet
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case Linear:
		return "linear"
	case NeuralNet:
		return "neural-net"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Spec identifies one of the twelve models.
type Spec struct {
	// Technique selects linear or neural-network modeling.
	Technique Technique
	// FeatureSet is the Table II feature group.
	FeatureSet features.Set
	// HiddenNodes sets the network width; 0 selects the paper's
	// default of 10–20 nodes scaled with the feature-set size.
	HiddenNodes int
	// Seed drives weight initialisation (neural models).
	Seed uint64
	// SCG optionally overrides the trainer configuration.
	SCG mlp.SCGConfig
}

// String renders e.g. "linear-A" or "neural-net-F".
func (s Spec) String() string {
	return fmt.Sprintf("%s-%s", s.Technique, s.FeatureSet.Name)
}

// defaultHiddenNodes maps feature-set size to the paper's 10–20 node
// range: the smallest sets get ten nodes, the full set gets twenty.
func defaultHiddenNodes(setSize int) int {
	switch {
	case setSize <= 1:
		return 10
	case setSize == 2:
		return 12
	case setSize == 3:
		return 14
	case setSize == 4:
		return 15
	case setSize <= 6:
		return 18
	default:
		return 20
	}
}

// AllSpecs returns the twelve Section V models: both techniques over the
// six feature sets, linear first, sets in A–F order.
func AllSpecs(seed uint64) []Spec {
	var out []Spec
	for _, tech := range []Technique{Linear, NeuralNet} {
		for _, set := range features.Sets() {
			out = append(out, Spec{Technique: tech, FeatureSet: set, Seed: seed})
		}
	}
	return out
}

// Model is a trained co-location performance predictor.
type Model struct {
	// Spec is the model's identity.
	Spec Spec

	baselines *harness.Dataset // baseline store for feature computation
	lin       *linreg.Model
	net       *mlp.Network
	xScaler   *features.Scaler
	yScaler   *features.VecScaler

	// prog is the model compiled into a fused predict program at
	// train/load time (see compile.go); cpool recycles per-worker
	// Compiled instances so Predict stays goroutine-safe while running
	// the compiled fast path. nil prog means interpreted-only.
	prog  *program
	cpool sync.Pool
}

// TrainScratch carries the reusable per-worker state for repeated model
// training: the linear fitter's augmented matrix + QR scratch and the
// neural trainer's batched forward/backward workspace. Buffers grow on
// first use and are reused by every subsequent fit, so a warmed scratch
// makes repeated training (bootstrap partitions, retrain attempts) nearly
// allocation-free outside the returned models.
//
// Reuse contract: a TrainScratch is NOT goroutine-safe. Keep exactly one
// per worker goroutine, as Evaluate does.
type TrainScratch struct {
	fitter linreg.Fitter
	ws     *mlp.Workspace
}

// NewTrainScratch returns a scratch with the neural workspace eagerly
// allocated. The zero value also works; its buffers appear on first use.
func NewTrainScratch() *TrainScratch {
	return &TrainScratch{ws: mlp.NewWorkspace()}
}

func (s *TrainScratch) workspace() *mlp.Workspace {
	if s.ws == nil {
		s.ws = mlp.NewWorkspace()
	}
	return s.ws
}

// Train fits one model on the given records. The dataset supplies
// baselines for feature extraction; records are the (sub)set of
// co-location measurements to fit on. Each call uses a private scratch;
// callers training many models should hold a TrainScratch and use
// TrainWithScratch.
func Train(spec Spec, ds *harness.Dataset, records []harness.Record) (*Model, error) {
	return TrainWithScratch(spec, ds, records, nil)
}

// TrainWithScratch is Train with an explicit reusable scratch (nil for a
// fresh private one).
func TrainWithScratch(spec Spec, ds *harness.Dataset, records []harness.Record, scratch *TrainScratch) (*Model, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if len(spec.FeatureSet.Features) == 0 {
		return nil, fmt.Errorf("core: spec %q has an empty feature set", spec)
	}
	x, y, err := features.Matrix(spec.FeatureSet, ds, records)
	if err != nil {
		return nil, err
	}
	return trainXY(spec, ds, x, y, scratch)
}

// TrainScenarios fits a model on explicit (possibly heterogeneous)
// scenarios with measured execution times: the training path used by the
// mixed-training extension, where co-runner sets are not homogeneous and
// therefore cannot be expressed as harness Records.
func TrainScenarios(spec Spec, ds *harness.Dataset, scs []features.Scenario, seconds []float64) (*Model, error) {
	return TrainScenariosScratch(spec, ds, scs, seconds, nil)
}

// TrainScenariosScratch is TrainScenarios with an explicit reusable
// scratch (nil for a fresh private one).
func TrainScenariosScratch(spec Spec, ds *harness.Dataset, scs []features.Scenario, seconds []float64, scratch *TrainScratch) (*Model, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if len(spec.FeatureSet.Features) == 0 {
		return nil, fmt.Errorf("core: spec %q has an empty feature set", spec)
	}
	x, y, err := features.MatrixScenarios(spec.FeatureSet, ds, scs, seconds)
	if err != nil {
		return nil, err
	}
	return trainXY(spec, ds, x, y, scratch)
}

// trainXY fits the spec's technique on a prepared design matrix, reusing
// the scratch's fitter and workspace buffers.
func trainXY(spec Spec, ds *harness.Dataset, x *linalg.Matrix, y []float64, scratch *TrainScratch) (*Model, error) {
	if scratch == nil {
		scratch = &TrainScratch{}
	}
	var err error
	m := &Model{Spec: spec, baselines: ds}
	switch spec.Technique {
	case Linear:
		m.lin, err = scratch.fitter.Fit(x, y)
		if err != nil {
			return nil, fmt.Errorf("core: fitting %s: %w", spec, err)
		}
	case NeuralNet:
		hidden := spec.HiddenNodes
		if hidden == 0 {
			hidden = defaultHiddenNodes(len(spec.FeatureSet.Features))
		}
		m.xScaler = features.FitScaler(x)
		m.yScaler = features.FitVecScaler(y)
		xs, err := m.xScaler.Transform(x)
		if err != nil {
			return nil, err
		}
		ys := m.yScaler.Transform(y)
		net, err := mlp.New(mlp.Config{
			Inputs:     x.Cols,
			Hidden:     []int{hidden},
			Activation: mlp.Tanh,
			Seed:       spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		cfg := spec.SCG
		if cfg.MaxIter == 0 {
			cfg.MaxIter = 400
		}
		if _, err := mlp.TrainSCGWS(net, xs, ys, cfg, scratch.workspace()); err != nil {
			return nil, fmt.Errorf("core: training %s: %w", spec, err)
		}
		m.net = net
	default:
		return nil, fmt.Errorf("core: unknown technique %d", int(spec.Technique))
	}
	m.initCompiled()
	return m, nil
}

// Predict estimates the target's co-located execution time for a
// schedule-time scenario, using only baseline measurements. Models carry
// a compiled fast path (built at train/load time) that this dispatches
// through; results are bit-identical to PredictInterpreted, which remains
// the reference implementation.
func (m *Model) Predict(sc features.Scenario) (float64, error) {
	if c := m.compiled(); c != nil {
		v, err := c.Predict(sc)
		m.cpool.Put(c)
		return v, err
	}
	return m.PredictInterpreted(sc)
}

// PredictInterpreted is the uncompiled reference predict path: the
// feature pipeline walked per call and the technique dispatched
// generically. The compiled path is property-tested bit-for-bit against
// it (internal/testeq), and models whose artefacts defeat the compiler
// fall back to it transparently.
func (m *Model) PredictInterpreted(sc features.Scenario) (float64, error) {
	v, err := features.Vector(m.Spec.FeatureSet, m.baselines, sc)
	if err != nil {
		return 0, err
	}
	return m.predictVector(v)
}

func (m *Model) predictVector(v []float64) (float64, error) {
	switch {
	case m.lin != nil:
		return m.lin.Predict(v)
	case m.net != nil:
		xs, err := m.xScaler.TransformVec(v)
		if err != nil {
			return 0, err
		}
		ys, err := m.net.Forward(xs)
		if err != nil {
			return 0, err
		}
		return m.yScaler.Inverse(ys), nil
	default:
		return 0, fmt.Errorf("core: model %s not trained", m.Spec)
	}
}

// PredictRecords predicts the execution time of each record's scenario in
// one batched pass: the design matrix is built once and the model is
// evaluated with a single batched kernel call per layer instead of one
// forward per record. Results are bit-identical to per-record Predict.
func (m *Model) PredictRecords(records []harness.Record) ([]float64, error) {
	if len(records) == 0 {
		return []float64{}, nil
	}
	x, _, err := features.Matrix(m.Spec.FeatureSet, m.baselines, records)
	if err != nil {
		return nil, err
	}
	return m.predictMatrix(x)
}

// PredictScenarios predicts every scenario in one batched pass, the
// many-scenario counterpart of Predict (bit-identical to calling it per
// scenario): PredictScenariosInto with a fresh result slice.
func (m *Model) PredictScenarios(scs []features.Scenario) ([]float64, error) {
	out := make([]float64, len(scs))
	if err := m.PredictScenariosInto(scs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictScenariosInto is PredictScenarios writing into the caller's
// buffer (length len(scs)), for callers that predict in a loop and keep
// one buffer: compiled models evaluate the batch through a pooled
// instance's blocked kernels with zero heap allocations once that
// instance's scratch has grown to the batch size. The result is
// bit-identical to PredictScenariosInterpreted, which models whose
// artefact defeated the compiler fall back to.
func (m *Model) PredictScenariosInto(scs []features.Scenario, out []float64) error {
	if c := m.compiled(); c != nil {
		err := c.PredictScenarios(scs, out)
		m.cpool.Put(c)
		return err
	}
	if len(out) != len(scs) {
		return fmt.Errorf("core: output length %d for %d scenarios", len(out), len(scs))
	}
	preds, err := m.PredictScenariosInterpreted(scs)
	copy(out, preds)
	return err
}

// PredictScenariosInterpreted is the uncompiled reference batch path:
// design matrix built by the generic feature pipeline, technique
// evaluated by the generic batched kernels. The compiled batch path is
// property-tested bit-for-bit against it.
func (m *Model) PredictScenariosInterpreted(scs []features.Scenario) ([]float64, error) {
	if len(scs) == 0 {
		return []float64{}, nil
	}
	labels := make([]float64, len(scs))
	x, _, err := features.MatrixScenarios(m.Spec.FeatureSet, m.baselines, scs, labels)
	if err != nil {
		return nil, err
	}
	return m.predictMatrix(x)
}

// predictMatrix evaluates the fitted technique over a prepared design
// matrix. Per row the arithmetic order matches predictVector exactly: the
// linear sum starts at the constant and adds terms in feature order, and
// the network's batched forward accumulates each node bit-identically to
// Forward.
func (m *Model) predictMatrix(x *linalg.Matrix) ([]float64, error) {
	switch {
	case m.lin != nil:
		out := make([]float64, x.Rows)
		if err := m.lin.PredictBatchInto(x, out); err != nil {
			return nil, err
		}
		return out, nil
	case m.net != nil:
		xs, err := m.xScaler.Transform(x)
		if err != nil {
			return nil, err
		}
		out, err := m.net.PredictBatch(xs)
		if err != nil {
			return nil, err
		}
		for i, v := range out {
			out[i] = m.yScaler.Inverse(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: model %s not trained", m.Spec)
	}
}

// PredictedSlowdown returns the predicted execution time divided by the
// target's baseline at the scenario's P-state: the normalised execution
// time of Table VI.
func (m *Model) PredictedSlowdown(sc features.Scenario) (float64, error) {
	pred, err := m.Predict(sc)
	if err != nil {
		return 0, err
	}
	b, err := m.baselines.Baseline(sc.Target)
	if err != nil {
		return 0, err
	}
	if sc.PState < 0 || sc.PState >= len(b.SecondsByPState) {
		return 0, fmt.Errorf("core: P-state %d missing from %s baseline", sc.PState, sc.Target)
	}
	return pred / b.SecondsByPState[sc.PState], nil
}

// Errors computes MPE and NRMSE of the model on the given records.
func (m *Model) Errors(records []harness.Record) (mpe, nrmse float64, err error) {
	pred, err := m.PredictRecords(records)
	if err != nil {
		return 0, 0, err
	}
	actual := make([]float64, len(records))
	for i, r := range records {
		actual[i] = r.Seconds
	}
	mpe, err = stats.MPE(pred, actual)
	if err != nil {
		return 0, 0, err
	}
	nrmse, err = stats.NRMSE(pred, actual)
	if err != nil {
		return 0, 0, err
	}
	return mpe, nrmse, nil
}

// PartitionErrors is one partition's train/test accuracy.
type PartitionErrors struct {
	TrainMPE, TestMPE     float64
	TrainNRMSE, TestNRMSE float64
}

// EvalConfig tunes the repeated random sub-sampling protocol.
type EvalConfig struct {
	// Partitions is the number of random splits (paper: 100).
	Partitions int
	// TestFraction is the withheld share (paper: 0.30).
	TestFraction float64
	// Seed drives the partition sampling and per-partition model seeds.
	Seed uint64
	// Workers bounds parallel partition training; 0 = GOMAXPROCS.
	Workers int
}

func (c *EvalConfig) defaults() {
	if c.Partitions == 0 {
		c.Partitions = 100
	}
	if c.TestFraction == 0 {
		c.TestFraction = 0.30
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// EvalResult aggregates a model's accuracy across partitions.
type EvalResult struct {
	// Spec identifies the model.
	Spec Spec
	// Mean errors across partitions (the data points of Figures 1–4).
	TrainMPE, TestMPE     float64
	TrainNRMSE, TestNRMSE float64
	// CI95 half-widths of the mean test errors; the paper observes these
	// are tight ("at most a quarter of a percent").
	TestMPECI, TestNRMSECI float64
	// PerPartition holds the raw per-partition errors.
	PerPartition []PartitionErrors
}

// Evaluate runs the full Section IV-B4 protocol for one model spec:
// repeatedly withhold 30 % of the records, train on the rest, measure both
// sides, and average. Partitions train concurrently.
func Evaluate(spec Spec, ds *harness.Dataset, cfg EvalConfig) (*EvalResult, error) {
	cfg.defaults()
	if len(ds.Records) < 10 {
		return nil, fmt.Errorf("core: only %d records; need at least 10", len(ds.Records))
	}
	part, err := stats.NewPartitioner(len(ds.Records), cfg.TestFraction, xrand.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	parts := part.Partitions(cfg.Partitions)

	// Derive every partition's model seed up front rather than inside the
	// worker closures; the derivation depends only on the partition index.
	seeds := make([]uint64, len(parts))
	for pi := range seeds {
		seeds[pi] = cfg.Seed + uint64(pi)
	}

	res := &EvalResult{Spec: spec, PerPartition: make([]PartitionErrors, cfg.Partitions)}
	workers := min(cfg.Workers, len(parts))
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
		idx      = make(chan int)
	)
	// A fixed worker pool rather than a semaphore-gated goroutine per
	// partition: each worker owns one TrainScratch whose fitter and
	// neural-net workspace buffers warm up on the first partition and are
	// reused by every later one it draws.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := NewTrainScratch()
			for pi := range idx {
				pe, err := evaluatePartition(spec, ds, parts[pi], seeds[pi], scratch)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				res.PerPartition[pi] = pe
			}
		}()
	}
	for pi := range parts {
		idx <- pi
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	n := len(res.PerPartition)
	trainMPEs := make([]float64, n)
	testMPEs := make([]float64, n)
	trainNRMSEs := make([]float64, n)
	testNRMSEs := make([]float64, n)
	for i, pe := range res.PerPartition {
		trainMPEs[i] = pe.TrainMPE
		testMPEs[i] = pe.TestMPE
		trainNRMSEs[i] = pe.TrainNRMSE
		testNRMSEs[i] = pe.TestNRMSE
	}
	res.TrainMPE = stats.Mean(trainMPEs)
	res.TrainNRMSE = stats.Mean(trainNRMSEs)
	res.TestMPE, res.TestMPECI = stats.MeanCI(testMPEs)
	res.TestNRMSE, res.TestNRMSECI = stats.MeanCI(testNRMSEs)
	return res, nil
}

// evaluatePartition trains on the partition's training split and measures
// both splits, reusing the worker's scratch.
func evaluatePartition(spec Spec, ds *harness.Dataset, p stats.Partition, seed uint64, scratch *TrainScratch) (PartitionErrors, error) {
	spec.Seed = seed
	train := selectRecords(ds.Records, p.Train)
	test := selectRecords(ds.Records, p.Test)
	m, err := TrainWithScratch(spec, ds, train, scratch)
	if err != nil {
		return PartitionErrors{}, err
	}
	var pe PartitionErrors
	if pe.TrainMPE, pe.TrainNRMSE, err = m.Errors(train); err != nil {
		return PartitionErrors{}, err
	}
	if pe.TestMPE, pe.TestNRMSE, err = m.Errors(test); err != nil {
		return PartitionErrors{}, err
	}
	return pe, nil
}

func selectRecords(rs []harness.Record, idx []int) []harness.Record {
	out := make([]harness.Record, len(idx))
	for i, j := range idx {
		out[i] = rs[j]
	}
	return out
}

// EvaluateAll evaluates all twelve Section V models on a dataset,
// returning results in AllSpecs order (linear A–F, then neural A–F).
func EvaluateAll(ds *harness.Dataset, cfg EvalConfig) ([]*EvalResult, error) {
	specs := AllSpecs(cfg.Seed)
	out := make([]*EvalResult, len(specs))
	for i, s := range specs {
		r, err := Evaluate(s, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", s, err)
		}
		out[i] = r
	}
	return out, nil
}
