// Package dvfs models processor performance states (P-states): the
// discrete voltage/frequency operating points of Section IV-A4 of the
// paper. P-states throttle core frequency (stretching compute time while
// leaving DRAM latency in wall-clock terms unchanged), which is why the
// paper keys the baseExTime feature on the P-state of the run.
//
// The package also carries a simple P-state power model used by the
// energy-estimation extension the paper's conclusion proposes.
package dvfs

import (
	"fmt"
	"sort"
)

// PState is one voltage/frequency operating point.
type PState struct {
	// Index is the P-state number; P0 is the highest-performance state.
	Index int
	// FreqGHz is the core clock frequency.
	FreqGHz float64
	// Voltage is the supply voltage in volts, used by the power model.
	Voltage float64
}

// Table is an ordered set of P-states, highest frequency first (P0 at
// position 0), mirroring ACPI convention.
type Table struct {
	states []PState
}

// NewTable builds a P-state table from frequencies in GHz. Voltages are
// assigned with a linear frequency-voltage relation between vMin and vMax,
// the standard first-order DVFS approximation. Frequencies are sorted
// descending and indexed from P0.
func NewTable(freqsGHz []float64, vMin, vMax float64) (*Table, error) {
	if len(freqsGHz) == 0 {
		return nil, fmt.Errorf("dvfs: empty frequency list")
	}
	if vMin <= 0 || vMax < vMin {
		return nil, fmt.Errorf("dvfs: invalid voltage range [%v, %v]", vMin, vMax)
	}
	fs := append([]float64(nil), freqsGHz...)
	for _, f := range fs {
		if f <= 0 {
			return nil, fmt.Errorf("dvfs: non-positive frequency %v", f)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(fs)))
	fMax, fMin := fs[0], fs[len(fs)-1]
	t := &Table{states: make([]PState, len(fs))}
	for i, f := range fs {
		var v float64
		if fMax == fMin {
			v = vMax
		} else {
			v = vMin + (vMax-vMin)*(f-fMin)/(fMax-fMin)
		}
		t.states[i] = PState{Index: i, FreqGHz: f, Voltage: v}
	}
	return t, nil
}

// Len returns the number of P-states.
func (t *Table) Len() int { return len(t.states) }

// State returns the P-state with the given index.
func (t *Table) State(index int) (PState, error) {
	if index < 0 || index >= len(t.states) {
		return PState{}, fmt.Errorf("dvfs: P-state index %d out of range [0,%d)", index, len(t.states))
	}
	return t.states[index], nil
}

// States returns a copy of all P-states, P0 first.
func (t *Table) States() []PState {
	return append([]PState(nil), t.states...)
}

// MaxFreq returns the P0 frequency in GHz.
func (t *Table) MaxFreq() float64 { return t.states[0].FreqGHz }

// MinFreq returns the lowest frequency in GHz.
func (t *Table) MinFreq() float64 { return t.states[len(t.states)-1].FreqGHz }

// DynamicPowerW returns the dynamic power (watts) of one active core at
// this P-state: P = C·V²·f with effective switched capacitance cEff
// (nF·GHz units fold into the constant).
func (p PState) DynamicPowerW(cEff float64) float64 {
	return cEff * p.Voltage * p.Voltage * p.FreqGHz
}
