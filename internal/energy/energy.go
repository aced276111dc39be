// Package energy implements the extension sketched in the paper's
// conclusion: "Having this methodology that is capable of predicting an
// application's execution time when presented with the uncertainty of
// memory interference from co-location allows this work to lend itself
// very well to being able to also ... estimate the energy used by the
// system during execution of a particular application, as well as the
// increase in energy use that is caused by memory interference."
//
// Energy = power × time: the package combines the processor's P-state
// power model (dynamic core power C·V²·f plus uncore power) with the
// execution-time predictions of a trained core.Model.
package energy

import (
	"fmt"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/simproc"
)

// Estimator computes package power for a processor specification.
type Estimator struct {
	spec simproc.Spec
}

// NewEstimator validates the spec and returns an estimator.
func NewEstimator(spec simproc.Spec) (*Estimator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{spec: spec}, nil
}

// Estimate is a predicted energy account for one target application run
// under co-location.
type Estimate struct {
	// PredictedSeconds is the model's execution-time prediction.
	PredictedSeconds float64
	// BaselineSeconds is the solo baseline at the same P-state.
	BaselineSeconds float64
	// TargetEnergyJ is the energy attributed to the target: its share of
	// uncore power plus one core's dynamic power, over the predicted
	// duration.
	TargetEnergyJ float64
	// BaselineEnergyJ is the solo-run energy: one core's dynamic power
	// plus the whole uncore (alone, the target owns the package).
	BaselineEnergyJ float64
	// InterferenceOverheadJ is the extra energy memory interference
	// causes: the predicted extra execution time at the co-located power
	// attribution. Always ≥ 0 when co-location slows the target down.
	InterferenceOverheadJ float64
	// ConsolidationSavingJ is the uncore energy the target no longer
	// pays for because co-runners share the package. The identity
	// TargetEnergyJ = BaselineEnergyJ + InterferenceOverheadJ −
	// ConsolidationSavingJ holds.
	ConsolidationSavingJ float64
}

// PredictTargetEnergy predicts the energy a target application will
// consume under the scenario, attributing to the target one core's
// dynamic power plus a 1/activeCores share of uncore power. The model
// must have been trained on the same machine as spec describes.
func PredictTargetEnergy(model *core.Model, e *Estimator, sc features.Scenario) (*Estimate, error) {
	if model == nil || e == nil {
		return nil, fmt.Errorf("energy: nil model or estimator")
	}
	activeCores := len(sc.CoApps) + 1
	if activeCores > e.spec.Cores {
		return nil, fmt.Errorf("energy: %d active contexts exceed %d cores", activeCores, e.spec.Cores)
	}
	st, err := e.spec.PStates.State(sc.PState)
	if err != nil {
		return nil, err
	}
	pred, err := model.Predict(sc)
	if err != nil {
		return nil, err
	}
	slowdown, err := model.PredictedSlowdown(sc)
	if err != nil {
		return nil, err
	}
	base := pred / slowdown

	corePower := st.DynamicPowerW(e.spec.CoreCEffW)
	sharedPower := e.spec.UncorePowerW / float64(activeCores)
	targetPower := corePower + sharedPower
	soloPower := corePower + e.spec.UncorePowerW // alone, the target owns the uncore

	est := &Estimate{
		PredictedSeconds:      pred,
		BaselineSeconds:       base,
		TargetEnergyJ:         targetPower * pred,
		BaselineEnergyJ:       soloPower * base,
		InterferenceOverheadJ: targetPower * (pred - base),
		ConsolidationSavingJ:  base * e.spec.UncorePowerW * (1 - 1/float64(activeCores)),
	}
	return est, nil
}

// SweepPStates predicts target energy at every P-state of the machine for
// a fixed co-location, supporting energy-vs-performance trade-off studies.
func SweepPStates(model *core.Model, e *Estimator, sc features.Scenario) ([]*Estimate, error) {
	if e == nil {
		return nil, fmt.Errorf("energy: nil estimator")
	}
	out := make([]*Estimate, e.spec.PStates.Len())
	for ps := 0; ps < e.spec.PStates.Len(); ps++ {
		sc.PState = ps
		est, err := PredictTargetEnergy(model, e, sc)
		if err != nil {
			return nil, err
		}
		out[ps] = est
	}
	return out, nil
}
