package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"time"

	"colocmodel/internal/obs"
)

// ---- placements ----

// leastLoaded returns the available backends ordered by outstanding
// proxied calls (ties by name, so routing is deterministic under equal
// load). Placement requests have no scenario key — any backend can
// serve any request, and they are the fleet's most expensive calls, so
// load is the only signal worth routing on.
func (rt *Router) leastLoaded() []*Backend {
	cands := rt.pool.Available()
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
// healthy backend. Registered outside wrap: the streaming mode must
// copy the backend's NDJSON body to the client incrementally, so the
// handler owns the writer. Failover (transport error, 5xx, drain shed)
// moves to the next candidate as long as no body byte has been
// forwarded; hedging is deliberately off — an optimizer search is the
// most expensive call in the system, and racing two of them doubles
// fleet load for no latency win.
func (rt *Router) handlePlacements(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.metrics.inFlight.Add(1)
	defer rt.metrics.inFlight.Add(-1)
	reqID, tr := rt.ingress(w, r, "placements", start)
	finish := func(status int) {
		d := time.Since(start)
		tr.Finish(status, status >= 500)
		rt.logRequest(r, "placements", reqID, status, d)
		rt.placements.Observe(d, status >= 500)
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		status, eb := errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
		writeJSON(w, status, eb)
		finish(status)
		return
	}
	cands := rt.leastLoaded()
	if len(cands) == 0 {
		rt.metrics.noBackend.Inc()
		w.Header().Set("Retry-After", "1")
		status, eb := errJSON(http.StatusServiceUnavailable, CodeNoBackend, "no healthy backend")
		writeJSON(w, status, eb)
		finish(status)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	ctx = obs.NewContext(ctx, reqID, tr)
	var lastErr error
	allShed := true
	for _, b := range cands {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, b.Base+"/v1/placements", bytes.NewReader(body))
		if rerr != nil {
			lastErr = rerr
			allShed = false
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", reqID)
		if tp := outboundTraceparent(ctx); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		b.acquire()
		resp, derr := rt.cfg.Client.Do(req)
		if derr != nil {
			b.release()
			b.metrics.request(true)
			lastErr = derr
			allShed = false
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
			// Typed drain shed: alive but refusing. Mark it and move on.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			b.release()
			b.markShedding(time.Second)
			b.metrics.sheds.Inc()
			b.metrics.request(false)
			continue
		}
		if resp.StatusCode >= 500 {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			b.release()
			b.metrics.request(true)
			lastErr = nil
			allShed = false
			continue
		}
		// Definitive answer: replay status and stream the body through.
		b.metrics.request(false)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if st := resp.Header.Get("Server-Timing"); st != "" {
			w.Header().Set("Server-Timing", st)
		}
		w.Header().Set("X-Backend", b.Name)
		w.WriteHeader(resp.StatusCode)
		f, _ := w.(http.Flusher)
		_, _ = io.Copy(flushWriter{w: w, f: f}, resp.Body)
		resp.Body.Close()
		b.release()
		finish(resp.StatusCode)
		return
	}
	var status int
	var eb any
	switch {
	case allShed && lastErr == nil:
		w.Header().Set("Retry-After", "1")
		status, eb = errJSON(http.StatusServiceUnavailable, CodeNoBackend, "all healthy backends are draining")
	case lastErr != nil:
		status, eb = errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed: %v", lastErr)
	default:
		status, eb = errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed")
	}
	writeJSON(w, status, eb)
	finish(status)
}
