package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"

	"colocmodel/internal/cluster"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// pprofPatterns are the patterns a node mounts under its pprof subtree
// when it opts in.
var pprofPatterns = []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"}

// tierPatterns reads both tiers' full route lists off their own tables.
func tierPatterns(t testing.TB) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for name, h := range map[string]http.Handler{
		"node":   serve.New(serve.NewRegistry(), serve.Config{}).Handler(),
		"router": cluster.New(cluster.Config{}).Handler(),
	} {
		rs, ok := h.(*obs.Routes)
		if !ok {
			t.Fatalf("%s: Handler is a %T, not the route table", name, h)
		}
		out[name] = rs.Patterns()
	}
	if len(out["node"]) != 14 || len(out["router"]) != 12 {
		t.Fatalf("route lists: node %d, router %d; want 14 and 12", len(out["node"]), len(out["router"]))
	}
	return out
}

// stub answers with the pattern it was registered under.
func stub(pattern string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, pattern) }
}

// tables builds a route table over patterns and, as its reference, an
// http.ServeMux holding the same patterns; with pprof the table forwards
// /debug/pprof to a mux of pprofPatterns, which the reference also holds.
func tables(patterns []string, pprof bool) (table *obs.Routes, ref *http.ServeMux) {
	table, ref = obs.NewRoutes(), http.NewServeMux()
	for _, p := range patterns {
		method, path, _ := strings.Cut(p, " ")
		table.Handle(method, path, stub(p))
		ref.HandleFunc(p, stub(p))
	}
	if pprof {
		sub := http.NewServeMux()
		for _, p := range pprofPatterns {
			sub.HandleFunc(p, stub(p))
			ref.HandleFunc(p, stub(p))
		}
		table.Subtree("/debug/pprof", sub)
	}
	return table, ref
}

func serveOne(h http.Handler, r *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// sameAnswer fails t unless the table answered r as the reference did:
// status, every header (Allow, Content-Type, Location) and body.
func sameAnswer(t testing.TB, table, ref http.Handler, method, target string, r func() *http.Request) {
	t.Helper()
	got, want := serveOne(table, r()), serveOne(ref, r())
	if got.Code != want.Code || got.Body.String() != want.Body.String() || !sameHeader(got.Header(), want.Header()) {
		t.Errorf("%s %s: table %d %v %q, ServeMux %d %v %q", method, target,
			got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
	}
}

func sameHeader(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if strings.Join(v, "\x00") != strings.Join(b[k], "\x00") {
			return false
		}
	}
	return true
}

// TestRouteTableMatchesServeMux holds the route table to http.ServeMux
// over both tiers' route lists: every route under six methods, unknown,
// trailing-slash and escaped paths, and the pprof subtree on and off.
// The one difference is asserted on its own: a non-canonical path is a
// 404 where the mux redirects it.
func TestRouteTableMatchesServeMux(t *testing.T) {
	methods := []string{"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS"}
	for tier, patterns := range tierPatterns(t) {
		paths := []string{"/", "/v1", "/v1/", "/v1/predictx", "/v1/schedule", "/nope", "/HEALTHZ",
			"/v1/pre%64ict", "/v1%2Fpredict", "/v1/predict%2F", "/v1/predict%3F",
			"/debug", "/debug/pprof", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap",
			"/debug/pprof/cmdline/", "/debug/pprofx", "/debug/pprof/%2e%2e/cmdline"}
		for _, p := range patterns {
			_, rp, _ := strings.Cut(p, " ")
			paths = append(paths, rp, rp+"/")
		}
		for _, pprof := range []bool{false, true} {
			table, ref := tables(patterns, pprof)
			for _, p := range paths {
				for _, m := range methods {
					sameAnswer(t, table, ref, m, p, func() *http.Request { return httptest.NewRequest(m, p, nil) })
				}
			}
			// The subtree answers everything under its prefix, so there the
			// mux's redirect of a non-canonical path stands.
			if pprof {
				for _, p := range []string{"/debug/pprof//cmdline", "/debug/pprof/../../healthz"} {
					sameAnswer(t, table, ref, "GET", p, func() *http.Request { return httptest.NewRequest("GET", p, nil) })
				}
			}
			for _, p := range []string{"/v1//predict", "/v1/./predict", "/v1/x/../predict", "//healthz", "/debug/../healthz"} {
				r := httptest.NewRequest("POST", p, nil)
				got, want := serveOne(table, r), serveOne(ref, r)
				if want.Code != http.StatusMovedPermanently {
					t.Fatalf("%s pprof=%v POST %s: ServeMux answered %d, not its redirect", tier, pprof, p, want.Code)
				}
				if got.Code != http.StatusNotFound || got.Body.String() != "404 page not found\n" {
					t.Errorf("%s pprof=%v POST %s: table %d %q, want http.NotFound", tier, pprof, p, got.Code, got.Body.String())
				}
			}
		}
	}
}

// TestRouteTableRefusesPatterns: a route the table cannot match exactly
// (a subtree, a wildcard, no method) or a path routed twice panics, as a
// conflicting pattern panics ServeMux.
func TestRouteTableRefusesPatterns(t *testing.T) {
	for _, c := range [][2]string{{"GET", "/debug/"}, {"GET", "/"}, {"GET", "v1"}, {"GET", "/v1/{name}"}, {"", "/v1/predict"}, {"POST", "/twice"}, {"GET", "/twice"}} {
		rs := obs.NewRoutes()
		rs.Handle("POST", "/twice", stub("POST /twice"))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%q, %q) did not panic", c[0], c[1])
				}
			}()
			rs.Handle(c[0], c[1], stub(c[0]+" "+c[1]))
		}()
	}
}

// canonical reports whether an escaped path is one ServeMux serves
// without redirecting: it begins with "/" and path.Clean keeps it, up
// to a trailing slash.
func canonical(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c == p
}

// FuzzRouteTable holds the route table to the ServeMux reference over
// any method and canonical path, for the node's routes with its pprof
// subtree and for the router's.
func FuzzRouteTable(f *testing.F) {
	all := tierPatterns(f)
	node, nodeRef := tables(all["node"], true)
	router, routerRef := tables(all["router"], false)
	for _, ps := range all {
		for _, p := range ps {
			m, rp, _ := strings.Cut(p, " ")
			f.Add(m, rp)
			f.Add("HEAD", rp+"/")
		}
	}
	f.Add("PATCH", "/debug/pprof/heap")
	f.Add("CONNECT", "/v1/predict")
	f.Add("GET", "/v1%2Fmodels")
	f.Fuzz(func(t *testing.T, method, target string) {
		r, err := http.NewRequest(method, "http://colo.test"+target, nil)
		if err != nil || !canonical(r.URL.EscapedPath()) {
			return
		}
		req := func() *http.Request { return r.Clone(r.Context()) }
		sameAnswer(t, node, nodeRef, method, target, req)
		sameAnswer(t, router, routerRef, method, target, req)
	})
}

// nopWriter is a ResponseWriter that keeps nothing, so a dispatch
// benchmark times the routing alone.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header       { return w.h }
func (nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopWriter) WriteHeader(int)             {}

// BenchmarkRouteDispatch times one dispatch over the node's routes, each
// request to a route in turn, through the table and through the
// ServeMux it replaced, to handlers that do nothing.
func BenchmarkRouteDispatch(b *testing.B) {
	patterns := tierPatterns(b)["node"]
	table, mux := obs.NewRoutes(), http.NewServeMux()
	nop := func(http.ResponseWriter, *http.Request) {}
	var reqs []*http.Request
	for _, p := range patterns {
		method, rp, _ := strings.Cut(p, " ")
		table.Handle(method, rp, nop)
		mux.HandleFunc(p, nop)
		reqs = append(reqs, httptest.NewRequest(method, rp, nil))
	}
	for _, c := range []struct {
		name string
		h    http.Handler
	}{{"table", table}, {"servemux", mux}} {
		b.Run(c.name, func(b *testing.B) {
			w := nopWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.h.ServeHTTP(w, reqs[i%len(reqs)])
			}
		})
	}
}
