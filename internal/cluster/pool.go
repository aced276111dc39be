package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/serve"
)

// BackendState is a backend's admission state in the pool.
type BackendState int32

const (
	// StateHealthy admits the backend to routing.
	StateHealthy BackendState = iota
	// StateShedding marks a live backend that is refusing new work
	// (typed 503 "draining" with Retry-After). It is skipped for new
	// requests but NOT ejected: the process answered, it is not dead.
	StateShedding
	// StateEjected removes the backend from routing after consecutive
	// probe failures; re-admission is probed with exponential backoff.
	StateEjected
)

// String names the state for listings and metrics.
func (s BackendState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateShedding:
		return "shedding"
	case StateEjected:
		return "ejected"
	default:
		return fmt.Sprintf("BackendState(%d)", int32(s))
	}
}

// Backend is one coloserve replica: its address, admission state, and
// the per-model serving generations last observed by probes and proxied
// responses. Generations only move forward (a backend restart that
// resets its registry generation is treated as stale information, never
// as a reason to route a client backwards).
type Backend struct {
	// Name identifies the backend in metrics and listings.
	Name string
	// Base is the HTTP root, e.g. "http://10.0.0.3:8080".
	Base string

	// Resolved once at join, so that a request parses and renders
	// nothing: Base parsed, and Name as an X-Backend header value.
	url     *url.URL
	nameHdr []string

	metrics backendMetrics

	state atomic.Int32
	// inflight counts proxied calls currently outstanding against the
	// backend; the placements route picks the least-loaded backend by it.
	inflight atomic.Int64

	mu           sync.Mutex
	consecFails  int
	backoff      time.Duration
	retryAt      time.Time // earliest next probe when ejected / shed expiry
	gens         map[string]uint64
	defaultModel string
}

// State returns the backend's admission state.
func (b *Backend) State() BackendState { return BackendState(b.state.Load()) }

// Available reports whether new requests may be routed to the backend.
func (b *Backend) Available() bool { return b.State() == StateHealthy }

// Inflight reports the number of proxied calls currently outstanding
// against the backend.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// acquire/release bracket one outstanding proxied call.
func (b *Backend) acquire() { b.inflight.Add(1) }
func (b *Backend) release() { b.inflight.Add(-1) }

// Gen returns the backend's last observed serving generation for a
// model; the empty model selects the backend's default entry. Unknown
// models report 0, which always satisfies a zero floor.
func (b *Backend) Gen(model string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if model == "" {
		model = b.defaultModel
	}
	return b.gens[model]
}

// Generations returns a copy of the backend's observed generation map.
func (b *Backend) Generations() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]uint64, len(b.gens))
	for k, v := range b.gens {
		out[k] = v
	}
	return out
}

// NoteGeneration folds an observed serving generation into the
// backend's record (monotone: lower observations are ignored).
func (b *Backend) NoteGeneration(model string, gen uint64) {
	if model == "" || gen == 0 {
		return
	}
	b.mu.Lock()
	if b.gens == nil {
		b.gens = make(map[string]uint64)
	}
	if gen > b.gens[model] {
		b.gens[model] = gen
	}
	if b.defaultModel == "" {
		b.defaultModel = model
	}
	b.mu.Unlock()
}

// SetGeneration records an authoritatively observed generation: the
// value was read from the backend's own registry (a /v1/version probe),
// so it is adopted even when LOWER than the current record — a lower
// reading means the process restarted and its swap counter reset, and
// keeping the stale high-water mark would route floor-holding clients
// to a backend that can no longer satisfy their floor.
func (b *Backend) SetGeneration(model string, gen uint64) {
	if model == "" || gen == 0 {
		return
	}
	b.mu.Lock()
	if b.gens == nil {
		b.gens = make(map[string]uint64)
	}
	b.gens[model] = gen
	if b.defaultModel == "" {
		b.defaultModel = model
	}
	b.mu.Unlock()
}

// markShedding records a typed-drain response: the backend is alive but
// refusing new work for about retryAfter.
func (b *Backend) markShedding(retryAfter time.Duration) {
	b.mu.Lock()
	b.consecFails = 0
	b.backoff = 0
	b.retryAt = time.Now().Add(retryAfter)
	b.mu.Unlock()
	b.state.Store(int32(StateShedding))
}

// Pool is the health- and generation-aware backend set. It owns the
// consistent-hash ring (rebuilt only on explicit join/leave, never on
// health flaps, so temporary ejections do not reshuffle key ownership)
// and runs the periodic probe loop: GET /healthz decides admission,
// GET /v1/version refreshes serving generations. Consecutive probe
// failures eject a backend; re-admission is retried with exponential
// backoff and succeeds on the first healthy probe.
type Pool struct {
	client       *http.Client
	probeTimeout time.Duration
	ejectAfter   int
	backoffBase  time.Duration
	backoffMax   time.Duration
	vnodes       int

	mu       sync.RWMutex
	backends map[string]*Backend
	ring     atomic.Pointer[ring]
}

// newPool wires a pool from the router config (cfg must have defaults
// applied).
func newPool(cfg Config) *Pool {
	p := &Pool{
		client:       cfg.Client,
		probeTimeout: cfg.ProbeTimeout,
		ejectAfter:   cfg.EjectAfter,
		backoffBase:  cfg.ReadmitBackoff,
		backoffMax:   cfg.ReadmitBackoffMax,
		vnodes:       cfg.VirtualNodes,
		backends:     make(map[string]*Backend),
	}
	p.ring.Store(buildRing(nil, p.vnodes))
	return p
}

// Add joins a backend to the pool and rebuilds the ring. Only the key
// ranges adjacent to the new backend's virtual nodes change owner.
func (p *Pool) Add(name, base string) error {
	if name == "" || base == "" {
		return fmt.Errorf("cluster: backend needs a name and a base URL")
	}
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("cluster: backend %q: %w", name, err)
	}
	u.Host = strings.TrimSuffix(u.Host, ":") // "host:" is "host", as http.NewRequest reads it
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.backends[name]; dup {
		return fmt.Errorf("cluster: backend %q already joined", name)
	}
	p.backends[name] = &Backend{Name: name, Base: base, url: u, nameHdr: []string{name}}
	p.rebuildLocked()
	return nil
}

// Remove leaves a backend from the pool and rebuilds the ring; keys it
// owned move to their next replica, everything else stays put.
func (p *Pool) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.backends[name]; !ok {
		return fmt.Errorf("cluster: backend %q not joined", name)
	}
	delete(p.backends, name)
	p.rebuildLocked()
	return nil
}

func (p *Pool) rebuildLocked() {
	backends := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		backends = append(backends, b)
	}
	p.ring.Store(buildRing(backends, p.vnodes))
}

// Get resolves a backend by name (nil if unknown).
func (p *Pool) Get(name string) *Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.backends[name]
}

// Backends lists the pool sorted by name.
func (p *Pool) Backends() []*Backend {
	p.mu.RLock()
	out := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		out = append(out, b)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Available lists routable backends sorted by name.
func (p *Pool) Available() []*Backend {
	all := p.Backends()
	out := all[:0]
	for _, b := range all {
		if b.Available() {
			out = append(out, b)
		}
	}
	return out
}

// Replicas returns the key's replica set in ring order (owner first),
// unfiltered by health — the router filters so that fallback decisions
// and metrics stay in one place. The slice is the caller's.
func (p *Pool) Replicas(key string, n int) []*Backend { return p.ring.Load().pick(key, n) }

// Members returns the ring's member names (sorted).
func (p *Pool) Members() []string { return p.ring.Load().members() }

// Start runs the probe loop until ctx is cancelled.
func (p *Pool) Start(ctx context.Context, interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				p.ProbeAll(ctx)
			}
		}
	}()
}

// ProbeAll probes every backend once. Exported so tests (and the router
// at startup) can step the health machinery deterministically instead
// of waiting out the ticker.
func (p *Pool) ProbeAll(ctx context.Context) {
	for _, b := range p.Backends() {
		p.probe(ctx, b)
	}
}

// probe runs one health/generation probe against a backend and applies
// the admission transition.
func (p *Pool) probe(ctx context.Context, b *Backend) {
	b.mu.Lock()
	if BackendState(b.state.Load()) == StateEjected && time.Now().Before(b.retryAt) {
		b.mu.Unlock()
		return // still backing off
	}
	b.mu.Unlock()

	status, shedFor, err := p.probeHealthz(ctx, b)
	switch {
	case err == nil && status == http.StatusOK:
		was := BackendState(b.state.Load())
		b.mu.Lock()
		b.consecFails = 0
		b.backoff = 0
		b.mu.Unlock()
		b.state.Store(int32(StateHealthy))
		if was == StateEjected {
			b.metrics.readmissions.Inc()
		}
		p.RefreshGeneration(ctx, b)
	case err == nil && shedFor > 0:
		// Typed drain shed: alive but refusing work. Not a failure.
		b.markShedding(shedFor)
	default:
		p.recordFailure(b)
	}
}

// recordFailure counts one probe failure and ejects the backend once
// the consecutive-failure threshold is crossed (doubling the
// re-admission backoff while failures continue).
func (p *Pool) recordFailure(b *Backend) {
	b.mu.Lock()
	b.consecFails++
	eject := b.consecFails >= p.ejectAfter
	if eject {
		if b.backoff == 0 {
			b.backoff = p.backoffBase
		} else {
			b.backoff *= 2
			if b.backoff > p.backoffMax {
				b.backoff = p.backoffMax
			}
		}
		b.retryAt = time.Now().Add(b.backoff)
	}
	b.mu.Unlock()
	if eject {
		if BackendState(b.state.Load()) != StateEjected {
			b.metrics.ejections.Inc()
		}
		b.state.Store(int32(StateEjected))
	}
}

// get performs one probe GET against a backend, bounded by the probe
// timeout, and returns the reply with its (bounded) body read.
func (p *Pool) get(ctx context.Context, b *Backend, path string) (*http.Response, []byte, error) {
	pctx, cancel := context.WithTimeout(ctx, p.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.Base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp, raw, err
}

// probeHealthz GETs the backend's /healthz. A 503 carrying Retry-After
// is the serve tier's typed drain shed; its delay is returned so the
// caller can mark the backend shedding instead of failed.
func (p *Pool) probeHealthz(ctx context.Context, b *Backend) (status int, shedFor time.Duration, err error) {
	resp, _, err := p.get(ctx, b, "/healthz")
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if d := retryAfter(resp.Header); d > 0 {
			return resp.StatusCode, d, nil
		}
		return resp.StatusCode, 0, fmt.Errorf("cluster: %s unhealthy: %s", b.Name, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, fmt.Errorf("cluster: %s healthz returned %s", b.Name, resp.Status)
	}
	return resp.StatusCode, 0, nil
}

// RefreshGeneration reads the backend's /v1/version and adopts the
// reported serving generations verbatim (see SetGeneration: a probe is
// authoritative, so a restart's counter reset is picked up rather than
// shadowed by the old high-water mark).
func (p *Pool) RefreshGeneration(ctx context.Context, b *Backend) {
	resp, raw, err := p.get(ctx, b, "/v1/version")
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	var v serve.VersionResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		return
	}
	b.mu.Lock()
	if v.DefaultModel != "" {
		b.defaultModel = v.DefaultModel
	}
	b.mu.Unlock()
	for model, gen := range v.Generations {
		b.SetGeneration(model, gen)
	}
	b.metrics.generation.SetMax(int64(b.Gen("")))
}
