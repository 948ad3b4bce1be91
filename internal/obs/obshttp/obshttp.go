// Package obshttp starts the optional debug HTTP listener the cmd tools
// expose behind a -debug-addr flag: /debug/vars (the runtime's expvars)
// and /debug/pprof (CPU, heap, mutex, ...). It
// also provides the Server type the live-telemetry endpoints (-live)
// build on: an explicit lifecycle around net/http with graceful shutdown.
//
// It lives apart from package obs so that importing the simulation kernels
// never drags pprof's DefaultServeMux side-effect registration into user
// binaries; only tools that opt in import this package.
package obshttp

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on DefaultServeMux
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"sync"
	"time"
)

// Serve starts an HTTP listener on addr serving the process-wide
// DefaultServeMux (expvar + pprof) in a background goroutine and returns
// the bound address (useful with ":0").
func Serve(addr string) (string, error) {
	s, err := Start(addr, nil)
	if err != nil {
		return "", err
	}
	return s.Addr(), nil
}

// Server is one HTTP listener with an explicit lifecycle: Start binds and
// serves in a background goroutine, Addr reports the bound address, Close
// shuts it down gracefully (in-flight responses get a short grace period,
// then the listener and connections are torn down). A Server is closed at
// most once; further Closes are no-ops returning the first result.
type Server struct {
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	closeErr  error
	done      chan struct{} // closed when the serve goroutine exits
}

// ShutdownGrace is how long Close waits for in-flight responses before
// forcing connections shut. Live snapshots are small; anything still
// writing after this is a stuck client.
const ShutdownGrace = 2 * time.Second

// Start binds addr and serves handler (the DefaultServeMux when nil) in a
// background goroutine. A bind failure — e.g. the port is already in use —
// is returned synchronously, before any goroutine starts.
func Start(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died underneath us (not via Close); there is
			// no caller to hand the error to, so record it for Close.
			s.closeOnce.Do(func() { s.closeErr = err })
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (host:port, with the real port
// when Start was given ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully shuts the server down: the listener stops accepting,
// in-flight responses get ShutdownGrace to finish, then remaining
// connections are forced closed. It waits for the serve goroutine to
// exit, so no handler runs after Close returns.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = s.srv.Close()
		}
		s.closeErr = err
	})
	<-s.done
	return s.closeErr
}
