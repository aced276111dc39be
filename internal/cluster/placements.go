package cluster

import (
	"io"
	"net/http"
	"sort"

	"colocmodel/internal/obs"
)

// ---- placements ----

// leastLoaded returns the available backends serving model at or above
// the generation floor, ordered by outstanding proxied calls (ties by
// name, so routing is deterministic under equal load). Placement and
// batch requests have no scenario key — any backend can serve any
// request, and they are the fleet's most expensive calls, so load is the
// only signal worth routing on.
func (rt *Router) leastLoaded(model string, floor uint64) []*Backend {
	avail := rt.pool.Available()
	cands := avail[:0]
	for _, b := range avail {
		if floor == 0 || b.Gen(model) >= floor {
			cands = append(cands, b)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		li, lj := cands[i].Inflight(), cands[j].Inflight()
		if li != lj {
			return li < lj
		}
		return cands[i].Name < cands[j].Name
	})
	return cands
}

// flushWriter flushes after every write so a backend's incremental
// NDJSON plans reach the client as the search produces them, not when
// it converges.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handlePlacements proxies POST /v1/placements to the least-loaded
// healthy backend, streaming the backend's NDJSON body to the client
// incrementally. Failover (transport error, 5xx, drain shed) moves to
// the next candidate as long as no body byte has been forwarded;
// hedging is deliberately off — an optimizer search is the most
// expensive call in the system, and racing two of them doubles fleet
// load for no latency win.
func (rt *Router) handlePlacements(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
	}
	cands := rt.leastLoaded("", 0) // a plan carries no generation
	if len(cands) == 0 {
		rt.metrics.noBackend.Inc()
		return rt.retryableUnavailable(w, "no healthy backend")
	}
	// Only a definitive answer is forwarded (status, then the body
	// streamed through), so a reply that is not ok has put no byte in
	// front of the client and the next candidate may still answer.
	forward := func(pr *proxyResult, resp *http.Response) error {
		if !pr.ok() {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return nil
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if pr.serverTiming != "" {
			w.Header().Set("Server-Timing", pr.serverTiming)
		}
		w.Header()["X-Backend"] = pr.backend.nameHdr
		w.WriteHeader(pr.status)
		f, _ := w.(http.Flusher)
		_, _ = io.Copy(flushWriter{w: w, f: f}, resp.Body)
		return nil
	}
	tp := outboundTraceparent(rq.Trace)
	pr := failover(rq.Trace.Root(), cands, notOK, func(b *Backend) *proxyResult {
		return rt.send(r.Context(), b, http.MethodPost, "/v1/placements", body, rq.ID, tp, forward)
	})
	switch {
	case pr.ok():
		return pr.status, nil
	case pr.shed:
		return rt.retryableUnavailable(w, "all healthy backends are draining")
	case pr.err != nil:
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed: %v", pr.err)
	default:
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed")
	}
}
