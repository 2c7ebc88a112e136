package obs

// The debug HTTP endpoint: net/http/pprof plus a live metrics snapshot,
// served for the duration of a run behind the CLIs' -pprof flag. This is the
// seed of a future `tsesim serve` mode — the handler set is already the one
// such a server would mount.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug listens on addr and serves the standard pprof handlers under
// /debug/pprof/ plus GET /metrics returning a JSON snapshot of reg (an empty
// snapshot when reg is nil). The listen happens synchronously — a bad
// address fails here, not in a background goroutine — and the returned
// shutdown function stops the server. bound is the actual listen address
// (useful with ":0").
func ServeDebug(addr string, reg *Registry) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
