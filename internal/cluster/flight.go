package cluster

import (
	"sync"
	"sync/atomic"

	"colocmodel/internal/obs"
)

// flightGroup coalesces identical in-flight work: the first caller for
// a key becomes the leader and runs fn; callers arriving while the
// leader is in flight block and share its result. A thundering herd of
// N identical cache-miss scenarios therefore costs one backend call.
//
// Unlike a cache, nothing is retained: the key is forgotten the moment
// the leader finishes, so followers only ever observe a response that
// was produced while their own request was pending (no staleness).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *proxyResult
	// leader is the leader's trace, so followers can annotate their
	// coalesce span with the ID of the trace that did the work. It is
	// live for as long as the flight is in calls: read it under g.mu.
	leader *obs.Trace
	// followers counts callers sharing this flight; tests use it to
	// step the coalescing machinery deterministically.
	followers atomic.Int64
}

// do runs fn for key, coalescing concurrent duplicates. The boolean
// reports whether the result was shared from another caller's flight.
// tr is the caller's trace (nil-safe): a follower spends its wait
// inside a "coalesce" span annotated with the leader's trace ID, so the
// two traces cross-reference.
func (g *flightGroup) do(key string, tr *obs.Trace, fn func() *proxyResult) (*proxyResult, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.followers.Add(1)
		leaderTrace := c.leader.TraceID()
		g.mu.Unlock()
		sp := tr.StartSpan("coalesce")
		if leaderTrace != "" {
			sp.Annotate("leader_trace", leaderTrace)
		}
		<-c.done
		sp.End()
		return c.res, true
	}
	c := &flightCall{done: make(chan struct{}), leader: tr}
	g.calls[key] = c
	g.mu.Unlock()

	c.res = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, false
}

// pendingFollowers reports how many callers are sharing the in-flight
// call for key (0 when no flight is active). Lets tests step the
// coalescing machinery deterministically instead of sleeping.
func (g *flightGroup) pendingFollowers(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.followers.Load()
	}
	return 0
}
