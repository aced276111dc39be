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
// processor simulator with its trace-driven LRU cache check
// (internal/simproc), the DRAM model (internal/dram), synthetic
// workloads and their miss-ratio curves (internal/workload), the
// data-collection harness (internal/harness), the from-scratch ML kernel
// (internal/linalg, internal/linreg, internal/mlp, internal/pca), and the
// application the paper motivates, interference-aware placement
// (internal/placement): PackFirst and Optimize place pending apps on a
// fleet, and Realise runs any plan on the simulator to count the QoS
// violations it really causes. This facade re-exports the surface the
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
	// RunOptions tunes a simulated run.
	RunOptions = simproc.Options
	// App is a synthetic application model (Table III).
	App = workload.App
)

// Re-exported data-collection types.
type (
	// Plan describes a Table V data-collection campaign.
	Plan = harness.Plan
	// Dataset holds baselines plus co-location measurements.
	Dataset = harness.Dataset
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
	// FeatureSet is a Table II feature group.
	FeatureSet = features.Set
	// Scenario is a schedule-time co-location description.
	Scenario = features.Scenario
)

// Re-exported application-layer types.
type (
	// PlacementProblem is one placement instance: a model, a fleet, the
	// pending apps, a QoS bound and the search's seed and beam.
	PlacementProblem = placement.Problem
	// PlacementMachine is one fleet machine: spec, usable cores and
	// allowed P-states.
	PlacementMachine = placement.Machine
	// PlacementPlan is a complete placement with its per-app account.
	PlacementPlan = placement.Plan
	// PlacementResult is an optimised plan with its search account.
	PlacementResult = placement.Result
	// EnergyEstimator computes P-state package power.
	EnergyEstimator = energy.Estimator
	// EnergyEstimate is a predicted per-run energy account.
	EnergyEstimate = energy.Estimate
)

// Re-exported serving-tier types (cmd/coloserve is the packaged
// binary; these let programs embed the inference tier directly).
type (
	// PredictionServer is the HTTP JSON inference server: registry +
	// wire codec + metrics behind the endpoints the serve package
	// documents (predict, batch, placements, models, the adaptation
	// loop, traces, SLO, health and metrics).
	PredictionServer = serve.Server
	// PredictionServerConfig tunes timeouts, request limits and the
	// observability edge.
	PredictionServerConfig = serve.Config
	// ModelRegistry holds named trained models with atomic hot-swap.
	ModelRegistry = serve.Registry
)

// Re-exported adaptation-loop types (the online feedback path: logged
// observations → drift detection → gated background retraining).
type (
	// Adaptation bundles the observation log, drift monitor and
	// retraining controller a PredictionServer wires together via
	// EnableAdaptation.
	Adaptation = serve.Adaptation
	// ObservationStore is the observation-log interface the adaptation
	// loop consumes: durable file-backed group-commit log or memory-only
	// store.
	ObservationStore = feedback.Store
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
)

// Modeling technique constants.
const (
	// Linear is least-squares linear regression (Eq. 1).
	Linear = core.Linear
	// NeuralNet is the SCG-trained feed-forward network.
	NeuralNet = core.NeuralNet
)

// XeonE5649 returns the 6-core Table IV machine.
func XeonE5649() MachineSpec { return simproc.XeonE5649() }

// XeonE52697v2 returns the 12-core Table IV machine.
func XeonE52697v2() MachineSpec { return simproc.XeonE52697v2() }

// NewProcessor constructs a simulated processor from a spec.
func NewProcessor(spec MachineSpec) (*Processor, error) { return simproc.New(spec) }

// AppByName returns the named Table III application.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// DefaultPlan returns the paper's Table V campaign for a machine.
func DefaultPlan(spec MachineSpec, seed uint64) Plan { return harness.DefaultPlan(spec, seed) }

// CollectDataset executes a data-collection plan on the simulator.
func CollectDataset(p Plan) (*Dataset, error) { return harness.Collect(p) }

// FeatureSetByName returns a Table II set by letter.
func FeatureSetByName(name string) (FeatureSet, error) { return features.SetByName(name) }

// TrainModel fits one model on the given records.
func TrainModel(spec ModelSpec, ds *Dataset, records []Record) (*Model, error) {
	return core.Train(spec, ds, records)
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

// PackFirst is the interference-oblivious baseline: apps fill the fleet
// in input order, each machine to capacity at its first allowed P-state.
func PackFirst(ctx context.Context, prob PlacementProblem) (*PlacementPlan, error) {
	return placement.PackFirst(ctx, prob)
}

// Optimize searches for the placement that minimises the problem's
// objective under its QoS bound, scoring every candidate with the model.
func Optimize(ctx context.Context, prob PlacementProblem) (*PlacementResult, error) {
	return placement.Optimize(ctx, prob, nil)
}

// Realise runs a plan on the simulator and returns its realised account
// in the same shape: simulated seconds, slowdowns and QoS violations.
func Realise(prob PlacementProblem, plan *PlacementPlan) (*PlacementPlan, error) {
	return placement.Realise(prob, plan)
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
