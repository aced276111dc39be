package loadgen

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
)

// Doer executes one generated request against a serve tier and reports
// the HTTP status, the response headers (for the Server-Timing stage
// names) and the response body. Implementations must be safe for
// concurrent use by many workers.
type Doer interface {
	Do(op Op) (status int, header http.Header, body []byte, err error)
}

// HandlerDoer drives an http.Handler directly in process — no sockets,
// no serialization across a wire. This is how the seeded soak becomes a
// deterministic unit test: the serve tier's real routing table (Server.Handler)
// is exercised end to end under -race without network jitter.
type HandlerDoer struct {
	Handler http.Handler
}

// Do synthesises the request and records the handler's response.
func (h *HandlerDoer) Do(op Op) (int, http.Header, []byte, error) {
	var rd io.Reader
	if op.Body != nil {
		rd = bytes.NewReader(op.Body)
	}
	req := httptest.NewRequest(op.Method, op.Path, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.Handler.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes(), nil
}
