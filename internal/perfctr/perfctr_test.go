package perfctr

import (
	"errors"
	"testing"
)

// fakeBackend is a settable counter backend for tests.
type fakeBackend struct {
	vals map[Event]uint64
}

func newFake() *fakeBackend {
	return &fakeBackend{vals: map[Event]uint64{TotIns: 0, TotCyc: 0, L3TCM: 0, L3TCA: 0}}
}

func (f *fakeBackend) CounterValue(ev Event) (uint64, error) {
	v, ok := f.vals[ev]
	if !ok {
		return 0, errors.New("unsupported event")
	}
	return v, nil
}

func TestEventSetLifecycle(t *testing.T) {
	f := newFake()
	es, err := NewEventSet(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Add(TotIns); err != nil {
		t.Fatal(err)
	}
	if err := es.Add(TotIns); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := es.Add(Event("PAPI_FAKE")); err == nil {
		t.Fatal("unsupported event accepted")
	}
	f.vals[TotIns] = 100
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	if err := es.Add(TotCyc); err == nil {
		t.Fatal("add while started accepted")
	}
	if err := es.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	f.vals[TotIns] = 350
	if err := es.Stop(); err != nil {
		t.Fatal(err)
	}
	v, err := es.Value(TotIns)
	if err != nil || v != 250 {
		t.Fatalf("delta = %d err=%v, want 250", v, err)
	}
	if _, err := es.Value(TotCyc); err == nil {
		t.Fatal("unmeasured event read accepted")
	}
}

func TestEventSetErrors(t *testing.T) {
	if _, err := NewEventSet(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
	f := newFake()
	es, _ := NewEventSet(f)
	if err := es.Start(); err == nil {
		t.Fatal("start of empty set accepted")
	}
	if err := es.Stop(); err == nil {
		t.Fatal("stop of unstarted set accepted")
	}
}

func TestCollect(t *testing.T) {
	f := newFake()
	c, err := Collect(f, func() error {
		f.vals[TotIns] = 1000
		f.vals[TotCyc] = 2000
		f.vals[L3TCM] = 10
		f.vals[L3TCA] = 50
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Instructions != 1000 || c.Cycles != 2000 || c.LLCMisses != 10 || c.LLCAccesses != 50 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestCollectPropagatesError(t *testing.T) {
	f := newFake()
	want := errors.New("boom")
	if _, err := Collect(f, func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestDerivedMetrics(t *testing.T) {
	c := Counts{Instructions: 1000, Cycles: 1500, LLCMisses: 20, LLCAccesses: 100}
	if c.MemoryIntensity() != 0.02 {
		t.Fatalf("memory intensity %v", c.MemoryIntensity())
	}
	if c.CMPerCA() != 0.2 {
		t.Fatalf("CM/CA %v", c.CMPerCA())
	}
	if c.CAPerIns() != 0.1 {
		t.Fatalf("CA/INS %v", c.CAPerIns())
	}
	if c.CPI() != 1.5 {
		t.Fatalf("CPI %v", c.CPI())
	}
}

func TestDerivedMetricsZeroSafe(t *testing.T) {
	var c Counts
	if c.MemoryIntensity() != 0 || c.CMPerCA() != 0 || c.CAPerIns() != 0 || c.CPI() != 0 {
		t.Fatal("zero counts produced non-zero ratios")
	}
}
