// Package statusz serves the HTTP observability surface for the daemon
// and the KV server: JSON status pages, raw endpoints such as Prometheus
// /metrics, and (opt-in) the net/http/pprof profiling suite.
package statusz

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler serves the JSON encoding of fn()'s result at every request.
// Responses carry Cache-Control: no-store (every hit is a fresh
// snapshot); HEAD requests get headers only.
func Handler(fn func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fn()); err != nil {
			http.Error(w, fmt.Sprintf("statusz: encode: %v", err), http.StatusInternalServerError)
		}
	})
}

// Server is a minimal status HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeHandlers serves one JSON snapshot endpoint per entry of
// endpoints, each at http://addr/<name>, in a background goroutine, and
// returns the bound address. The "statusz" endpoint (if present) also
// serves "/" exactly; any other unregistered path is a 404, never a
// silent statusz page. raw holds http.Handler endpoints for non-JSON
// surfaces (Prometheus /metrics, pprof): its keys mount at /<key>; a key
// with a trailing slash mounts as a subtree (needed for "debug/pprof/").
// Raw keys win over JSON endpoints of the same name.
func ServeHandlers(addr string, endpoints map[string]func() any, raw map[string]http.Handler) (*Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("statusz: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	for name, fn := range endpoints {
		if _, shadowed := raw[name]; shadowed {
			continue
		}
		h := Handler(fn)
		mux.Handle("/"+name, h)
		if name == "statusz" {
			mux.Handle("/", exactPath("/", h))
		}
	}
	for name, h := range raw {
		mux.Handle("/"+name, h)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, ln.Addr(), nil
}

// exactPath serves h only for exactly path, and 404 otherwise — used to
// keep the "/" alias for statusz from swallowing every unknown path.
func exactPath(path string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// PprofHandlers returns the net/http/pprof suite keyed for
// ServeHandlers' raw map, mounting the usual /debug/pprof/ tree on the
// statusz listener. Callers gate this behind a -pprof flag: profiling
// endpoints can stall the process and should be deliberate.
func PprofHandlers() map[string]http.Handler {
	return map[string]http.Handler{
		"debug/pprof/":        http.HandlerFunc(pprofIndex),
		"debug/pprof/cmdline": http.HandlerFunc(pprof.Cmdline),
		"debug/pprof/profile": http.HandlerFunc(pprof.Profile),
		"debug/pprof/symbol":  http.HandlerFunc(pprof.Symbol),
		"debug/pprof/trace":   http.HandlerFunc(pprof.Trace),
	}
}

// pprofIndex dispatches /debug/pprof/<profile> names (heap, goroutine,
// block, mutex, ...) through pprof.Index, which handles both the index
// page and named runtime profiles.
func pprofIndex(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
		http.NotFound(w, r)
		return
	}
	pprof.Index(w, r)
}

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
