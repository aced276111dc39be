package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewTableSortsDescending(t *testing.T) {
	tab, err := NewTable([]float64{1.6, 2.53, 2.0}, 0.8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("len = %d", tab.Len())
	}
	if tab.MaxFreq() != 2.53 || tab.MinFreq() != 1.6 {
		t.Fatalf("max/min = %v/%v", tab.MaxFreq(), tab.MinFreq())
	}
	s0, _ := tab.State(0)
	if s0.FreqGHz != 2.53 || s0.Index != 0 {
		t.Fatalf("P0 = %+v", s0)
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 0.8, 1.2); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := NewTable([]float64{1.0, -2}, 0.8, 1.2); err == nil {
		t.Fatal("negative freq accepted")
	}
	if _, err := NewTable([]float64{1.0}, 0, 1.2); err == nil {
		t.Fatal("zero vMin accepted")
	}
	if _, err := NewTable([]float64{1.0}, 1.2, 0.8); err == nil {
		t.Fatal("inverted voltage range accepted")
	}
}

func TestVoltageScalesWithFrequency(t *testing.T) {
	tab, _ := NewTable([]float64{1.2, 2.7}, 0.8, 1.2)
	hi, _ := tab.State(0)
	lo, _ := tab.State(1)
	if hi.Voltage != 1.2 || lo.Voltage != 0.8 {
		t.Fatalf("voltages %v/%v", hi.Voltage, lo.Voltage)
	}
}

func TestSingleFrequencyTable(t *testing.T) {
	tab, err := NewTable([]float64{2.0}, 0.8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := tab.State(0)
	if s.Voltage != 1.2 {
		t.Fatalf("single-state voltage %v, want vMax", s.Voltage)
	}
}

func TestStateOutOfRange(t *testing.T) {
	tab, _ := NewTable([]float64{2.0}, 0.8, 1.2)
	if _, err := tab.State(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tab.State(1); err == nil {
		t.Fatal("overflow index accepted")
	}
}

func TestStatesIsCopy(t *testing.T) {
	tab, _ := NewTable([]float64{1.0, 2.0}, 0.8, 1.2)
	states := tab.States()
	states[0].FreqGHz = 99
	if tab.MaxFreq() == 99 {
		t.Fatal("States returned aliased slice")
	}
}

func TestDynamicPowerCubicScaling(t *testing.T) {
	tab, _ := NewTable([]float64{1.0, 2.0}, 0.6, 1.2)
	hi, _ := tab.State(0)
	lo, _ := tab.State(1)
	// P ∝ V²f: hi = 1.2²·2, lo = 0.6²·1 → ratio 8.
	ratio := hi.DynamicPowerW(1) / lo.DynamicPowerW(1)
	if math.Abs(ratio-8) > 1e-9 {
		t.Fatalf("power ratio %v, want 8", ratio)
	}
}

// Property: P-state ordering by index is ordering by descending frequency
// and descending voltage.
func TestTableOrderingProperty(t *testing.T) {
	f := func(seeds [6]uint16) bool {
		fs := make([]float64, 0, 6)
		for _, s := range seeds {
			fs = append(fs, 1.0+float64(s%3000)/1000)
		}
		tab, err := NewTable(fs, 0.7, 1.3)
		if err != nil {
			return false
		}
		states := tab.States()
		for i := 1; i < len(states); i++ {
			if states[i].FreqGHz > states[i-1].FreqGHz {
				return false
			}
			if states[i].Voltage > states[i-1].Voltage+1e-12 {
				return false
			}
			if states[i].Index != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
