package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/loadgen"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
)

const (
	modelName = "nnf"
	// servedSeed is the seed of pass 0, whose model is the one served. It
	// is fixed so that every run serves the same model: what a placement
	// search or a cache lookup costs then depends on the requests drawn
	// from -seed alone, not also on a differently trained model.
	servedSeed = 1
)

// iteration is one pass of the paper's pipeline on the 6-core machine:
// collect the Table V sweep, evaluate by repeated random sub-sampling,
// train neural-net-F on every record, save the artefact, load it back
// and register it for serving.
type iteration struct {
	// Seconds, as measured.
	collect  float64
	evalNN   float64
	evalLin  float64
	trainNN  float64
	trainLin float64
	saveLoad float64
	// Seconds on the reference machine, by the ruler that ran beside the
	// pass (calibrate.go): the end-to-end pipeline metrics.
	refCollect  float64
	refEvaluate float64 // linear-F and neural-net-F together
	refTrain    float64 // neural-net-F
	refSetup    float64 // collect + train + save/load + registry add: what a server waits for

	mpeNN  float64 // mean test MPE, percent (Eq. 2)
	mpeLin float64
	runs   int // simulated co-location runs in the sweep
	failed []string

	path  string
	model *core.Model // as loaded back from path
}

func modelSpecs(seed uint64) (nn, lin core.Spec, err error) {
	setF, err := features.SetByName("F")
	if err != nil {
		return nn, lin, err
	}
	return core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: seed},
		core.Spec{Technique: core.Linear, FeatureSet: setF, Seed: seed}, nil
}

// stageSpan is when one pipeline step ran.
type stageSpan struct{ from, to time.Time }

func (s stageSpan) seconds() float64 { return s.to.Sub(s.from).Seconds() }

// timed runs one pipeline step and returns when it ran.
func timed(step func() error) (stageSpan, error) {
	from := time.Now()
	err := step()
	return stageSpan{from, time.Now()}, err
}

// pipelineIteration runs pass i. Data, partitions and weight
// initialisation all derive from one seed, so a pass repeats exactly:
// servedSeed for pass 0, -seed plus i for the others.
// Evaluation is held to one worker, so that, like every other step, it
// is single-threaded and its figure does not depend on the core count.
func pipelineIteration(cfg config, i int) (*iteration, error) {
	seed := cfg.seed + uint64(i)
	if i == 0 {
		seed = servedSeed
	}
	nnSpec, linSpec, err := modelSpecs(seed)
	if err != nil {
		return nil, err
	}
	it := &iteration{path: filepath.Join(cfg.tmp, fmt.Sprintf("model-%d.json", i))}
	plan := harness.DefaultPlan(simproc.XeonE5649(), seed)
	it.runs = plan.RunCount()

	var collect, evalLin, evalNN, trainLin, trainNN, saveLoad, register stageSpan
	var lin, nn *core.EvalResult
	var trained *core.Model
	stages := func() error {
		var ds *harness.Dataset
		if collect, err = timed(func() (err error) { ds, err = harness.Collect(plan); return }); err != nil {
			return fmt.Errorf("collecting sweep: %w", err)
		}
		ec := core.EvalConfig{Partitions: cfg.partitions, Seed: seed, Workers: 1}
		if evalLin, err = timed(func() (err error) { lin, err = core.Evaluate(linSpec, ds, ec); return }); err != nil {
			return fmt.Errorf("evaluating linear-F: %w", err)
		}
		if evalNN, err = timed(func() (err error) { nn, err = core.Evaluate(nnSpec, ds, ec); return }); err != nil {
			return fmt.Errorf("evaluating neural-net-F: %w", err)
		}
		if trainLin, err = timed(func() error { _, err := core.Train(linSpec, ds, ds.Records); return err }); err != nil {
			return fmt.Errorf("training linear-F: %w", err)
		}
		if trainNN, err = timed(func() (err error) { trained, err = core.Train(nnSpec, ds, ds.Records); return }); err != nil {
			return fmt.Errorf("training neural-net-F: %w", err)
		}
		saveLoad, err = timed(func() (err error) {
			if err = saveModel(trained, it.path); err == nil {
				it.model, err = loadModel(it.path)
			}
			return
		})
		if err != nil {
			return err
		}
		register, err = timed(func() error { return serve.NewRegistry().Add(modelName, it.path, it.model) })
		return err
	}
	r := startRuler()
	err = stages()
	marks := r.stop()
	if err != nil {
		return nil, err
	}

	it.collect, it.evalLin, it.evalNN = collect.seconds(), evalLin.seconds(), evalNN.seconds()
	it.trainLin, it.trainNN, it.saveLoad = trainLin.seconds(), trainNN.seconds(), saveLoad.seconds()
	it.refCollect = marks.refSeconds(collect)
	it.refEvaluate = marks.refSeconds(evalLin) + marks.refSeconds(evalNN)
	it.refTrain = marks.refSeconds(trainNN)
	it.refSetup = it.refCollect + it.refTrain + marks.refSeconds(saveLoad) + marks.refSeconds(register)

	it.mpeNN, it.mpeLin = nn.TestMPE, lin.TestMPE
	if !(it.mpeNN < it.mpeLin) {
		it.failed = append(it.failed, fmt.Sprintf("pass %d: neural-net-F test MPE %.4f%% not below linear-F %.4f%%", i, it.mpeNN, it.mpeLin))
	}
	if err := sameOnHundred(trained, it.model); err != nil {
		it.failed = append(it.failed, fmt.Sprintf("pass %d: %v", i, err))
	}
	return it, nil
}

func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating artefact: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving artefact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing artefact: %w", err)
	}
	return nil
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening artefact: %w", err)
	}
	defer f.Close()
	m, err := core.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("loading artefact %s: %w", path, err)
	}
	return m, nil
}

// sameOnHundred checks that the re-loaded model predicts bit-identically
// to the trained one on 100 scenarios spread over the homogeneous space.
func sameOnHundred(trained, loaded *core.Model) error {
	space, err := loadgen.NewSpace(trained.Apps(), trained.PStates(), hotMaxCo)
	if err != nil {
		return err
	}
	for k := 0; k < 100; k++ {
		sc := toScenario(space.Scenario(k * space.Size() / 100))
		a, errA := trained.Predict(sc)
		b, errB := loaded.Predict(sc)
		if errA != nil || errB != nil {
			return fmt.Errorf("predicting %v: %v / %v", sc, errA, errB)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("re-loaded model predicts %v for %v, trained model %v", b, sc, a)
		}
	}
	return nil
}
