// Package colocmodel is a library for co-location aware application
// performance modeling on multicore processors, reproducing the
// methodology of Dauwe et al., "A Methodology for Co-Location Aware
// Application Performance Modeling in Multicore Computing" (IPDPS
// workshops, 2015).
//
// The library predicts the execution-time degradation a target
// application suffers when co-located with other applications on cores of
// the same multicore processor, caused by contention in the shared
// last-level cache and DRAM. Models need only a single serial baseline
// measurement per application; at schedule time they predict co-located
// execution time for any combination of applications, co-runner counts,
// and P-states.
//
// # Quickstart
//
//	spec := colocmodel.XeonE5649()
//	ds, err := colocmodel.CollectDataset(colocmodel.DefaultPlan(spec, 42))
//	...
//	set, _ := colocmodel.FeatureSetByName("F")
//	model, err := colocmodel.TrainModel(colocmodel.ModelSpec{
//	    Technique:  colocmodel.NeuralNet,
//	    FeatureSet: set,
//	}, ds, ds.Records)
//	...
//	slowdown, err := model.PredictedSlowdown(colocmodel.Scenario{
//	    Target: "canneal",
//	    CoApps: []string{"cg", "cg", "cg"},
//	    PState: 0,
//	})
//
// The packages under internal/ contain the full substrate: the multicore
// processor simulator (internal/simproc), cache and DRAM models
// (internal/cache, internal/dram), synthetic workloads
// (internal/workload), the data-collection harness (internal/harness),
// and the from-scratch ML kernel (internal/linalg, internal/linreg,
// internal/mlp, internal/pca). This facade re-exports the surface the
// examples build on, and the types that surface's signatures name.
package colocmodel

import (
	"context"
	"io"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/energy"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/placement"
	"colocmodel/internal/retrain"
	"colocmodel/internal/sched"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// Re-exported machine and workload model types.
type (
	// MachineSpec describes a multicore processor (Table IV).
	MachineSpec = simproc.Spec
	// Processor simulates one multicore machine.
	Processor = simproc.Processor
	// RunResult reports one simulated (co-located) execution.
	RunResult = simproc.Result
	// RunOptions tunes a simulated run.
	RunOptions = simproc.Options
	// App is a synthetic application model (Table III).
	App = workload.App
	// AppClass is a Table III memory-intensity class.
	AppClass = workload.Class
)

// Re-exported data-collection types.
type (
	// Plan describes a Table V data-collection campaign.
	Plan = harness.Plan
	// Dataset holds baselines plus co-location measurements.
	Dataset = harness.Dataset
	// Baseline is one application's serial baseline measurement.
	Baseline = harness.Baseline
	// Record is one co-location measurement.
	Record = harness.Record
)

// Re-exported modeling types.
type (
	// ModelSpec identifies one of the twelve models (technique ×
	// feature set).
	ModelSpec = core.Spec
	// Model is a trained co-location performance predictor.
	Model = core.Model
	// Technique selects linear or neural-network modeling.
	Technique = core.Technique
	// FeatureSet is a Table II feature group.
	FeatureSet = features.Set
	// Feature is one of the eight Table I features.
	Feature = features.Feature
	// Scenario is a schedule-time co-location description.
	Scenario = features.Scenario
	// EvalConfig tunes repeated random sub-sampling validation.
	EvalConfig = core.EvalConfig
	// EvalResult aggregates a model's accuracy across partitions.
	EvalResult = core.EvalResult
)

// Re-exported application-layer types.
type (
	// SchedAssignment maps machines to placed applications.
	SchedAssignment = sched.Assignment
	// SchedEvaluation reports measured assignment quality.
	SchedEvaluation = sched.Evaluation
	// AwareConfig tunes the interference-aware packer.
	AwareConfig = sched.AwareConfig
	// BatchConfig tunes the discrete-event batch scheduler simulation.
	BatchConfig = sched.BatchConfig
	// BatchResult reports a batch simulation.
	BatchResult = sched.BatchResult
	// BatchPolicy selects the batch placement rule.
	BatchPolicy = sched.BatchPolicy
	// EnergyEstimator computes P-state package power.
	EnergyEstimator = energy.Estimator
	// EnergyEstimate is a predicted per-run energy account.
	EnergyEstimate = energy.Estimate
)

// Re-exported serving-tier types (cmd/coloserve is the packaged
// binary; these let programs embed the inference tier directly).
type (
	// PredictionServer is the HTTP JSON inference server: registry +
	// wire codec + metrics behind /v1/predict, /v1/predict/batch,
	// /v1/schedule, /v1/models, /healthz and /metrics.
	PredictionServer = serve.Server
	// PredictionServerConfig tunes timeouts, request limits and the
	// observability edge.
	PredictionServerConfig = serve.Config
	// ModelRegistry holds named trained models with atomic hot-swap.
	ModelRegistry = serve.Registry
	// ServedModelInfo describes one registry entry.
	ServedModelInfo = serve.ModelInfo
	// ServeMetrics is the serving tier's Prometheus-rendered metrics
	// layer.
	ServeMetrics = serve.Metrics
)

// Re-exported adaptation-loop types (the online feedback path: logged
// observations → drift detection → gated background retraining).
type (
	// Adaptation bundles the observation log, drift monitor and
	// retraining controller a PredictionServer wires together via
	// EnableAdaptation.
	Adaptation = serve.Adaptation
	// Observation is one logged predicted-vs-measured runtime.
	Observation = feedback.Observation
	// ObservationStore is the observation-log interface the adaptation
	// loop consumes: durable file-backed group-commit log or memory-only
	// store.
	ObservationStore = feedback.Store
	// ObservationLog is the durable, checksummed, file-backed
	// group-commit observation log (what OpenObservationLog returns
	// for a non-empty Dir).
	ObservationLog = feedback.Log
	// ObservationCommit describes the group commit that made an
	// AppendBatch durable.
	ObservationCommit = feedback.Commit
	// ObservationIngestStats is a snapshot of the ingest pipeline's
	// cumulative counters and histograms.
	ObservationIngestStats = feedback.IngestStats
	// ObservationRetention is the size/age retention bound enforced by
	// the log's compactor.
	ObservationRetention = feedback.Retention
	// ObservationLogConfig tunes segment rotation, the group-commit
	// queue, compaction and retention.
	ObservationLogConfig = feedback.Config
	// DriftMonitor watches per-(model × target) residual streams with
	// Welford moments and a two-sided Page–Hinkley detector.
	DriftMonitor = drift.Monitor
	// DriftConfig tunes the detector.
	DriftConfig = drift.Config
	// DriftReport is the monitor's queryable state.
	DriftReport = drift.Report
	// RetrainController runs gated background retraining: candidates
	// train on logged observations and promote only when they beat the
	// incumbent's holdout MPE by a margin.
	RetrainController = retrain.Controller
	// RetrainConfig tunes the controller.
	RetrainConfig = retrain.Config
	// RetrainResult reports one retraining attempt.
	RetrainResult = retrain.Result
	// RetrainStatus is the controller's queryable state.
	RetrainStatus = retrain.Status
)

// Modeling technique constants.
const (
	// Linear is least-squares linear regression (Eq. 1).
	Linear = core.Linear
	// NeuralNet is the SCG-trained feed-forward network.
	NeuralNet = core.NeuralNet
)

// Batch placement policies.
const (
	// PackFirst fills machines densely, interference-blind.
	PackFirst = sched.PackFirst
	// AwareSpread consults the model before every placement.
	AwareSpread = sched.AwareSpread
)

// Application class constants (Table III).
const (
	ClassI   = workload.ClassI
	ClassII  = workload.ClassII
	ClassIII = workload.ClassIII
	ClassIV  = workload.ClassIV
)

// XeonE5649 returns the 6-core Table IV machine.
func XeonE5649() MachineSpec { return simproc.XeonE5649() }

// XeonE52697v2 returns the 12-core Table IV machine.
func XeonE52697v2() MachineSpec { return simproc.XeonE52697v2() }

// Machines returns both Table IV machines.
func Machines() []MachineSpec { return simproc.Machines() }

// NewProcessor constructs a simulated processor from a spec.
func NewProcessor(spec MachineSpec) (*Processor, error) { return simproc.New(spec) }

// Apps returns the eleven Table III applications.
func Apps() []App { return workload.All() }

// AppByName returns the named Table III application.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// TrainingCoApps returns the four representative co-location applications
// (cg, sp, fluidanimate, ep).
func TrainingCoApps() []App { return workload.TrainingCoApps() }

// DefaultPlan returns the paper's Table V campaign for a machine.
func DefaultPlan(spec MachineSpec, seed uint64) Plan { return harness.DefaultPlan(spec, seed) }

// CollectDataset executes a data-collection plan on the simulator.
func CollectDataset(p Plan) (*Dataset, error) { return harness.Collect(p) }

// FeatureSets returns the six Table II feature sets A–F.
func FeatureSets() []FeatureSet { return features.Sets() }

// FeatureSetByName returns a Table II set by letter.
func FeatureSetByName(name string) (FeatureSet, error) { return features.SetByName(name) }

// AllModelSpecs returns the twelve Section V model specs.
func AllModelSpecs(seed uint64) []ModelSpec { return core.AllSpecs(seed) }

// TrainModel fits one model on the given records.
func TrainModel(spec ModelSpec, ds *Dataset, records []Record) (*Model, error) {
	return core.Train(spec, ds, records)
}

// EvaluateModel runs the repeated random sub-sampling protocol for one
// model spec.
func EvaluateModel(spec ModelSpec, ds *Dataset, cfg EvalConfig) (*EvalResult, error) {
	return core.Evaluate(spec, ds, cfg)
}

// LoadModel reads a model previously written by Model.Save: the
// deployable artefact a resource manager ships to scheduling nodes.
// Loaded models are compiled for the inference fast path on load.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// NewModelRegistry returns an empty model registry for serving.
func NewModelRegistry() *ModelRegistry { return serve.NewRegistry() }

// NewPredictionServer builds an HTTP inference server around a
// registry; its Handler, Serve and ListenAndServe methods run it.
func NewPredictionServer(reg *ModelRegistry, cfg PredictionServerConfig) *PredictionServer {
	return serve.New(reg, cfg)
}

// OpenObservationLog opens (or recovers) an observation store: the
// durable file-backed group-commit log when cfg.Dir is set, a
// memory-only store otherwise.
func OpenObservationLog(cfg ObservationLogConfig) (ObservationStore, error) {
	return feedback.Open(cfg)
}

// NewDriftMonitor returns an empty residual drift monitor.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor { return drift.NewMonitor(cfg) }

// NewRetrainController builds a gated retraining controller over a
// registry, an optional offline dataset, and an observation store.
func NewRetrainController(cfg RetrainConfig, reg *ModelRegistry, base *Dataset, obs ObservationStore) (*RetrainController, error) {
	return retrain.New(cfg, reg, base, obs)
}

// ScheduleOblivious packs jobs interference-blind.
func ScheduleOblivious(spec MachineSpec, jobs []string) SchedAssignment {
	return sched.Oblivious(spec, jobs)
}

// ScheduleAware packs jobs using model predictions under a QoS bound.
func ScheduleAware(model *Model, spec MachineSpec, jobs []string, cfg AwareConfig) (SchedAssignment, error) {
	return sched.GreedyAware(model, spec, jobs, cfg)
}

// MeasureAssignment runs an assignment on the simulator and reports the
// jobs' actual slowdowns against a QoS bound.
func MeasureAssignment(spec MachineSpec, asg SchedAssignment, pstate int, qosBound float64) (*SchedEvaluation, error) {
	return sched.Measure(spec, asg, pstate, qosBound)
}

// SimulateBatch drains a job queue onto a fleet with dynamic co-location
// (jobs finish, cores refill, interference shifts) and reports makespan,
// slowdowns, violations and fleet energy.
func SimulateBatch(spec MachineSpec, jobs []string, cfg BatchConfig) (*BatchResult, error) {
	return sched.SimulateBatch(spec, jobs, cfg)
}

// Placement optimizer types (the what-if scheduling product: fleet +
// pending apps -> seeded assignment and P-state choice minimising
// predicted degradation or energy).
type (
	// PlacementProblem is one optimizer instance: model, fleet, apps,
	// objective, QoS bound, seed and search knobs.
	PlacementProblem = placement.Problem
	// PlacementMachine describes one fleet machine: spec, usable cores,
	// allowed P-states.
	PlacementMachine = placement.Machine
	// PlacementPlan is a complete placement with its predicted account
	// (per-app slowdown/degradation, per-machine P-states, totals).
	PlacementPlan = placement.Plan
	// PlacementResult pairs the best plan with search statistics.
	PlacementResult = placement.Result
	// PlacementObjective selects what the optimizer minimises.
	PlacementObjective = placement.Objective
)

// Placement objective constants.
const (
	// MinDegradation minimises total predicted degradation (default).
	MinDegradation = placement.MinDegradation
	// MinEnergy minimises total predicted machine energy.
	MinEnergy = placement.MinEnergy
)

// OptimizePlacement searches for the best assignment of apps to the
// fleet; onImprove (optional) observes each improving plan as the
// seeded local search finds it.
func OptimizePlacement(ctx context.Context, prob PlacementProblem, onImprove func(*PlacementPlan)) (*PlacementResult, error) {
	return placement.Optimize(ctx, prob, onImprove)
}

// PackFirstPlacement is the interference-oblivious baseline: fill
// machines in order at their first allowed P-state.
func PackFirstPlacement(ctx context.Context, prob PlacementProblem) (*PlacementPlan, error) {
	return placement.PackFirst(ctx, prob)
}

// NewEnergyEstimator returns a package-power estimator for a machine.
func NewEnergyEstimator(spec MachineSpec) (*EnergyEstimator, error) {
	return energy.NewEstimator(spec)
}

// PredictTargetEnergy predicts a target's energy use under co-location.
func PredictTargetEnergy(model *Model, e *EnergyEstimator, sc Scenario) (*EnergyEstimate, error) {
	return energy.PredictTargetEnergy(model, e, sc)
}

// SweepEnergyPStates predicts target energy at every P-state.
func SweepEnergyPStates(model *Model, e *EnergyEstimator, sc Scenario) ([]*EnergyEstimate, error) {
	return energy.SweepPStates(model, e, sc)
}
