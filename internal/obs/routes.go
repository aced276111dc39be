package obs

import (
	"net/http"
	"slices"
	"strings"
)

// Routes is the routing table of both HTTP tiers: one exact-path map
// lookup per request, where http.ServeMux walks its pattern tree. It
// answers what a ServeMux holding the same "METHOD /path" patterns
// answers: the route's handler when the method matches (a GET route also
// serves HEAD), a 405 with the mux's Allow header and body when only the
// method differs, and http.NotFound otherwise. One difference is by
// design: a non-canonical path (/v1//predict, /v1/./predict) is a 404
// here, where the mux 301-redirects it to its cleaned form; the
// repository's clients never send one.
//
// A table may forward one path prefix to another handler whole (the
// net/http/pprof subtree, when a tier opts in); that handler then
// answers every path under the prefix, canonical or not.
type Routes struct {
	paths    map[string]route
	patterns []string
	prefix   string
	subtree  http.Handler
}

// route is one path's method, handler, and the Allow header a request
// with any other method gets.
type route struct {
	method  string
	handler http.HandlerFunc
	allow   string
}

// NewRoutes returns an empty table.
func NewRoutes() *Routes { return &Routes{paths: make(map[string]route)} }

// Handle routes method requests for exactly path to h; a path takes one
// method. A path is literal: it begins with "/", and neither ends with
// one (a ServeMux subtree; see Subtree) nor holds a {wildcard}. Handle
// panics on any other path, an empty method, and a path routed twice, as
// ServeMux.HandleFunc does on a conflicting pattern.
func (rs *Routes) Handle(method, path string, h http.HandlerFunc) {
	if method == "" || len(path) < 2 || path[0] != '/' || strings.HasSuffix(path, "/") || strings.ContainsAny(path, "{}") {
		panic("obs: route " + method + " " + path + " is not a method and a literal path")
	}
	if _, dup := rs.paths[path]; dup {
		panic("obs: route " + method + " " + path + ": path already routed")
	}
	allow := method
	if method == http.MethodGet {
		allow = "GET, HEAD"
	}
	rs.paths[path] = route{method: method, handler: h, allow: allow}
	rs.patterns = append(rs.patterns, method+" "+path)
}

// Subtree forwards every request whose path begins with prefix, and
// that no route matches, to h.
func (rs *Routes) Subtree(prefix string, h http.Handler) {
	rs.prefix, rs.subtree = prefix, h
}

// Patterns lists the routes as ServeMux patterns ("POST /v1/predict"),
// in the order they were added.
func (rs *Routes) Patterns() []string { return slices.Clone(rs.patterns) }

// ServeHTTP dispatches r.
func (rs *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	// The mux matches the escaped path segment by segment, so an escaped
	// slash (%2F) inside a segment matches no route; Path has it decoded.
	if rt, ok := rs.paths[p]; ok && (r.URL.RawPath == "" || strings.Count(r.URL.EscapedPath(), "/") == strings.Count(p, "/")) {
		if r.Method == rt.method || r.Method == http.MethodHead && rt.method == http.MethodGet {
			rt.handler(w, r)
			return
		}
		w.Header().Set("Allow", rt.allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	if rs.subtree != nil && strings.HasPrefix(p, rs.prefix) {
		rs.subtree.ServeHTTP(w, r)
		return
	}
	http.NotFound(w, r)
}
