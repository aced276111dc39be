package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"

	"colocmodel/internal/cluster"
	"colocmodel/internal/serve"
)

// ClusterTarget is an in-process serving fleet: n coloserve replicas on
// httptest listeners joined to a colorouter gateway. Driving the
// returned Doer exercises the full two-hop path — router routing and
// hedging in front, real HTTP to the replicas behind —
// deterministically enough to run as a seeded soak under -race.
type ClusterTarget struct {
	// Router is the gateway; its Pool and Metrics are exposed so soaks
	// can step probes and assert on routing behaviour.
	Router *cluster.Router
	// Servers are the replicas, in join order (backend i is named "bi").
	Servers   []*serve.Server
	listeners []*httptest.Server
}

// NewClusterTarget builds a fleet of n replicas behind a router.
// newServer constructs replica i; each replica must own its registry
// (rolling promotions bump generations per backend, which shared state
// would hide). The router probes every backend once before returning,
// so routing starts with fresh health and generation data; the periodic
// probe loop runs until ctx is cancelled.
func NewClusterTarget(ctx context.Context, cfg cluster.Config, n int, newServer func(i int) (*serve.Server, error)) (*ClusterTarget, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: cluster size must be positive, got %d", n)
	}
	ct := &ClusterTarget{Router: cluster.New(cfg)}
	for i := 0; i < n; i++ {
		srv, err := newServer(i)
		if err != nil {
			ct.Close()
			return nil, fmt.Errorf("loadgen: building replica %d: %w", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		ct.Servers = append(ct.Servers, srv)
		ct.listeners = append(ct.listeners, ts)
		if err := ct.Router.Pool().Add(fmt.Sprintf("b%d", i), ts.URL); err != nil {
			ct.Close()
			return nil, err
		}
	}
	ct.Router.Start(ctx)
	return ct, nil
}

// Doer returns a Doer that drives the router's handler in process (the
// router still reaches its backends over real loopback HTTP).
func (ct *ClusterTarget) Doer() Doer {
	return &HandlerDoer{Handler: ct.Router.Handler()}
}

// BackendURL returns replica i's base URL.
func (ct *ClusterTarget) BackendURL(i int) string { return ct.listeners[i].URL }

// Close shuts the replica listeners down.
func (ct *ClusterTarget) Close() {
	for _, ts := range ct.listeners {
		ts.Close()
	}
}
