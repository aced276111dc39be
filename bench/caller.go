package main

import (
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"colocmodel/internal/stats"
)

// caller drives an http.Handler in process without httptest: the
// request is built directly and the reply lands in a reusable writer, so
// the instrument's own cost (bench.null_call_us) stays a small share of
// the shortest reply it times. One caller belongs to one client
// goroutine.
type caller struct {
	hdr    http.Header
	reqID  []string // backing store of the X-Request-Id value
	tp     []string // backing store of the Traceparent value
	body   bodyReader
	w      replyWriter
	urls   map[string]*url.URL
	spans  *spanLog // nil unless tracing
	hname  string   // span name of the handler call
	parent uint32   // span the next handler span hangs under
	lastID uint32   // span id of the last handler span
}

func newCaller(spans *spanLog, handlerSpan string) *caller {
	return &caller{
		hdr:   http.Header{"Content-Type": {"application/json"}},
		reqID: make([]string, 1),
		tp:    make([]string, 1),
		w:     replyWriter{hdr: make(http.Header, 8)},
		urls:  make(map[string]*url.URL),
		spans: spans,
		hname: handlerSpan,
	}
}

// bodyReader is a resettable request body.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// replyWriter is the minimal http.ResponseWriter: status, headers and
// body bytes, all reused from call to call.
type replyWriter struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (w *replyWriter) Header() http.Header { return w.hdr }

func (w *replyWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *replyWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// do sends one POST and returns the status; the reply is in c.w until
// the next call. reqID 0 sends no X-Request-ID (the server mints one);
// traceparent "" sends none.
func (c *caller) do(h http.Handler, path string, body []byte, reqID uint64, traceparent string) int {
	u := c.urls[path]
	if u == nil {
		u = &url.URL{Path: path}
		c.urls[path] = u
	}
	if reqID != 0 {
		c.reqID[0] = formatReqID(reqID)
		c.hdr["X-Request-Id"] = c.reqID
	} else {
		delete(c.hdr, "X-Request-Id")
	}
	if traceparent != "" {
		c.tp[0] = traceparent
		c.hdr["Traceparent"] = c.tp
	} else {
		delete(c.hdr, "Traceparent")
	}
	c.body = bodyReader{b: body}
	clear(c.w.hdr)
	c.w.status, c.w.buf = 0, c.w.buf[:0]
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.hdr,
		Body:          &c.body,
		ContentLength: int64(len(body)),
		Host:          "bench",
		RequestURI:    path,
	}
	if c.spans == nil {
		h.ServeHTTP(&c.w, req)
	} else {
		start := c.spans.now()
		h.ServeHTTP(&c.w, req)
		c.lastID = c.spans.add(c.hname, reqID, c.parent, start, c.spans.now())
	}
	if c.w.status == 0 {
		c.w.status = http.StatusOK
	}
	return c.w.status
}

const reqIDPrefix = "bench-"

func formatReqID(id uint64) string { return reqIDPrefix + strconv.FormatUint(id, 16) }

// parseReqID inverts formatReqID; anything else (the router's own health
// probes, minted IDs) yields 0.
func parseReqID(s string) uint64 {
	if len(s) <= len(reqIDPrefix) || s[:len(reqIDPrefix)] != reqIDPrefix {
		return 0
	}
	id, err := strconv.ParseUint(s[len(reqIDPrefix):], 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// nullHandler reads the body and answers a small fixed reply: what is
// left of a call when the served program costs nothing.
var nullHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{}\n"))
})

// nullCall measures the caller against nullHandler: median time per call
// over chunks, and allocations per call.
func nullCall(calls int) (us, allocs float64) {
	const chunk = 1000
	c := newCaller(nil, "")
	body := []byte(`{"target":"canneal","co_apps":["cg","cg"],"pstate":0}`)
	for i := 0; i < chunk; i++ {
		c.do(nullHandler, "/v1/predict", body, 0, "")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var per []float64
	for done := 0; done < calls; done += chunk {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			c.do(nullHandler, "/v1/predict", body, 0, "")
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/chunk/1e3)
	}
	runtime.ReadMemStats(&after)
	return stats.Median(per), float64(after.Mallocs-before.Mallocs) / float64(len(per)*chunk)
}
