package core

import (
	"fmt"
	"slices"
	"sort"

	"colocmodel/internal/harness"
)

// Introspection accessors for deployed models. A serving tier must be
// able to validate a request (is the app known? is the P-state in
// range?) *before* running a prediction, so that malformed input can be
// rejected as a client error rather than surfacing as an internal one.
// These methods expose the read-only facts the baseline store already
// holds without exposing the store itself.

// Machine returns the name of the machine the model's baselines were
// measured on.
func (m *Model) Machine() string {
	if m.baselines == nil {
		return ""
	}
	return m.baselines.Machine
}

// Apps returns the sorted names of every application the model has a
// baseline for — the applications it can predict. An application's
// index in this list is its id (AppID).
func (m *Model) Apps() []string {
	if m.space == nil {
		return nil
	}
	return slices.Clone(m.space.names)
}

// HasApp reports whether the model has a baseline for the named
// application.
func (m *Model) HasApp(name string) bool {
	_, ok := m.AppID(name)
	return ok
}

// AppID resolves an application name to its id in the model's id space:
// its index in Apps(). Ids are ordered like names. A caller that predicts
// many rows resolves each name once and hands the ids to PredictIDsInto.
func (m *Model) AppID(name string) (int32, bool) {
	if m.space == nil {
		return 0, false
	}
	id, ok := m.space.ids[name]
	return id, ok
}

// IDScenario is a features.Scenario whose applications are ids in the
// model's id space (AppID): the row PredictIDsInto evaluates. An id
// outside the space is an unknown application and fails wherever an
// unknown name would.
type IDScenario struct {
	Target int32
	CoApps []int32
	PState int
}

// appSpace is a model's application-id space: its baseline names in
// sorted order, and each name's index in that order. The compiled
// program's fact table, the serving table and the placement engine's
// rows are all indexed by it.
type appSpace struct {
	names []string
	ids   map[string]int32
}

func newAppSpace(ds *harness.Dataset) *appSpace {
	if ds == nil {
		return nil
	}
	s := &appSpace{names: make([]string, 0, len(ds.Baselines)), ids: make(map[string]int32, len(ds.Baselines))}
	for name := range ds.Baselines {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for id, name := range s.names {
		s.ids[name] = int32(id)
	}
	return s
}

// PStates returns the number of P-states the model's baselines cover.
// Valid scenario P-state indices are [0, PStates).
func (m *Model) PStates() int {
	if m.baselines == nil {
		return 0
	}
	return len(m.baselines.PStateFreqs)
}

// Baselines returns the model's baseline store: the dataset of serial
// baseline measurements prediction features are computed from. The
// returned dataset is shared, not copied — callers must treat it as
// read-only. The retraining controller uses it as the feature source
// when no offline training dataset is available (a loaded artefact
// carries baselines but not the original training records).
func (m *Model) Baselines() *harness.Dataset { return m.baselines }

// BaselineSeconds returns the named application's baseline execution
// time at a P-state: the denominator of every slowdown the model
// predicts.
func (m *Model) BaselineSeconds(app string, pstate int) (float64, error) {
	b, err := m.baselines.Baseline(app)
	if err != nil {
		return 0, err
	}
	if pstate < 0 || pstate >= len(b.SecondsByPState) {
		return 0, fmt.Errorf("core: P-state %d missing from %s baseline", pstate, app)
	}
	return b.SecondsByPState[pstate], nil
}
