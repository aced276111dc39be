package cluster

import (
	"io"
	"net/http"

	"colocmodel/internal/obs"
)

// ---- placements ----

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
// the next candidate as long as no body byte has been forwarded.
func (rt *Router) handlePlacements(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	body, status, refusal := readRequestBody(r, 8<<20)
	if refusal != nil {
		return status, refusal
	}
	cands := rt.candidates("", 0, 0) // a plan carries no generation
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
	pr := rt.failover(r, rq, cands, notOK, http.MethodPost, "/v1/placements", body, forward)
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
