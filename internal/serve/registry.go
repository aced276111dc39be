package serve

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"colocmodel/internal/core"
	"colocmodel/internal/jsonwire"
)

// Registry holds named trained models and supports atomic hot-swap: a
// model can be re-trained and reloaded while requests are in flight,
// without a lock on the prediction path and without any request
// observing a half-replaced model. Each swap publishes the entry's next
// generation in the same value as the model, so a request that reads one
// reads the other.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry
	first   string // name of the first-added model, the default
}

type registryEntry struct {
	name string
	path string // source artefact, "" if the model was added in-process
	// mu serialises the writers (Add, Swap, Reload), so each store reads
	// the generation it succeeds; readers never take it.
	mu    sync.Mutex
	model atomic.Pointer[servedModel]
}

// servedModel is a model plus what every reply derives from it, worked
// out once per Add, Swap or Reload instead of once per request. It is
// one immutable value behind one pointer, so a reply never mixes one
// model's prediction with another's baseline or generation, and an
// application id is only ever read against the snapshot that resolved it.
type servedModel struct {
	m *core.Model
	// gen counts the models this entry has served, this one included
	// (1 = never swapped).
	gen uint64
	// spec is m.Spec.String().
	spec string
	// identity is `{"model":<entry>,"generation":<gen>,"spec":<spec>`,
	// the opening every predict reply from this snapshot shares.
	identity string
	// pstateKeys[ps] is `,"pstate":<ps>,"predicted_seconds":`, the middle
	// of a served batch row.
	pstateKeys []string
	// apps is the serving table, indexed by the model's application ids
	// (core.Model.AppID): request validation resolves each name to its id
	// once, and every later step reads this row.
	apps    []servedApp
	pstates int
	// known is m.Apps() joined for the unknown-app messages.
	known string
}

// servedApp is one application's name and baseline seconds per P-state,
// each also as encoding/json renders it ("" for a value it cannot), and
// the fragments a served batch row of it is framed by: row opens it,
// `{"result":` + the identity + `,"target":` + json + `,"co_apps":`, and
// tail[ps] closes it, `,"baseline_seconds":` + text[ps] +
// `,"cached":false}}` ("" where text[ps] is).
type servedApp struct {
	json string
	secs []float64
	text []string
	row  string
	tail []string
}

func (e *registryEntry) store(m *core.Model) {
	names := m.Apps()
	sm := &servedModel{m: m, spec: m.Spec.String(), pstates: m.PStates(), known: strings.Join(names, ", "),
		apps: make([]servedApp, len(names))}
	for id, name := range names {
		secs := m.Baselines().Baselines[name].SecondsByPState
		app := servedApp{json: string(jsonwire.AppendString(nil, name)), secs: secs, text: make([]string, len(secs))}
		for ps, sec := range secs {
			if text, ok := jsonwire.AppendFloat(nil, sec); ok {
				app.text[ps] = string(text)
			}
		}
		sm.apps[id] = app
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sm.gen = 1
	if prev := e.model.Load(); prev != nil {
		sm.gen = prev.gen + 1
	}
	sm.identity = string(appendIdentity(nil, e.name, sm.gen, sm.spec))
	sm.frameRows()
	e.model.Store(sm)
}

// frameRows renders the fragments a served batch row is framed by.
func (sm *servedModel) frameRows() {
	sm.pstateKeys = make([]string, sm.pstates)
	for ps := range sm.pstateKeys {
		sm.pstateKeys[ps] = `,"pstate":` + strconv.Itoa(ps) + `,"predicted_seconds":`
	}
	for id := range sm.apps {
		app := &sm.apps[id]
		app.row = `{"result":` + sm.identity + `,"target":` + app.json + `,"co_apps":`
		app.tail = make([]string, len(app.text))
		for ps, text := range app.text {
			if text != "" {
				app.tail[ps] = `,"baseline_seconds":` + text + `,"cached":false}}`
			}
		}
	}
}

// snapshot reads the entry's serving state in one pointer load: the
// model, its serving table and its generation were published together,
// so whatever a request derives from one snapshot — values, baseline,
// generation label — belongs to one model.
func (e *registryEntry) snapshot() *servedModel {
	return e.model.Load()
}

// ModelInfo describes one registry entry for the listing endpoint.
type ModelInfo struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Default marks the model used when requests name none.
	Default bool `json:"default"`
	// Spec is the model identity, e.g. "neural-net-F".
	Spec string `json:"spec"`
	// Machine is the machine the model was trained for.
	Machine string `json:"machine"`
	// Apps are the applications the model can predict.
	Apps []string `json:"apps"`
	// PStates is the number of P-states the model covers.
	PStates int `json:"pstates"`
	// Generation counts hot-swaps of this entry (1 = never swapped).
	Generation uint64 `json:"generation"`
	// Path is the source artefact, if loaded from disk.
	Path string `json:"path,omitempty"`
}

// NewRegistry returns an empty model registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*registryEntry)}
}

// Add registers a model under a name. The first model added becomes the
// default for requests that do not name one. path records where the
// artefact came from so Reload can re-read it; it may be empty.
func (r *Registry) Add(name string, path string, m *core.Model) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	if m == nil {
		return fmt.Errorf("serve: nil model for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	e := &registryEntry{name: name, path: path}
	e.store(m)
	r.entries[name] = e
	if r.first == "" {
		r.first = name
	}
	return nil
}

// Swap atomically replaces a registered model. Requests already holding
// the old pointer finish against it; new requests see the new model.
func (r *Registry) Swap(name string, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("serve: nil model for %q", name)
	}
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("serve: model %q not registered", name)
	}
	e.store(m)
	return nil
}

// Get resolves a model by name (empty name selects the default) and
// returns it together with the entry's current generation.
func (r *Registry) Get(name string) (*core.Model, uint64, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	sm := e.snapshot()
	return sm.m, sm.gen, nil
}

// lookup resolves a registry entry by name (empty selects the default).
func (r *Registry) lookup(name string) (*registryEntry, error) {
	r.mu.RLock()
	if name == "" {
		name = r.first
	}
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, badRequest(CodeUnknownModel, "unknown model %q (see GET /v1/models)", name)
	}
	return e, nil
}

// DefaultName returns the default model's name ("" when empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.first
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// List describes every registered model, sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	infos := make([]ModelInfo, 0, len(r.entries))
	first := r.first
	for _, e := range r.entries {
		sm := e.snapshot()
		m := sm.m
		infos = append(infos, ModelInfo{
			Name:       e.name,
			Default:    e.name == first,
			Spec:       sm.spec,
			Machine:    m.Machine(),
			Apps:       m.Apps(),
			PStates:    m.PStates(),
			Generation: sm.gen,
			Path:       e.path,
		})
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Reload re-reads every disk-backed entry's artefact and hot-swaps it
// in. Entries added in-process (no path) are skipped. On a read or
// parse failure the old model stays in service and the error is
// reported; models already reloaded keep their new version.
func (r *Registry) Reload() (reloaded []string, err error) {
	r.mu.RLock()
	entries := make([]*registryEntry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.path != "" {
			entries = append(entries, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		m, lerr := loadModelFile(e.path)
		if lerr != nil {
			return reloaded, fmt.Errorf("serve: reloading %q: %w", e.name, lerr)
		}
		e.store(m)
		reloaded = append(reloaded, e.name)
	}
	return reloaded, nil
}

// loadModelFile reads one model artefact from disk.
func loadModelFile(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadModel(f)
}
