package httpapi

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"dynppr"
)

// Per-connection phase timeouts. Edge batches are applied synchronously
// inside the request, so writeTimeout is the effective cap on batch pipeline
// latency.
const (
	readTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	idleTimeout  = 60 * time.Second
)

// ServerOptions configure the HTTP server.
type ServerOptions struct {
	// Addr is the listen address; an empty string selects ":8080" and a
	// ":0" port asks the kernel for a free one (see Server.Addr).
	Addr string
	// Handler configures the handler's traffic management (rate limit,
	// admission timeout, pprof).
	Handler HandlerOptions
}

// Server runs the API handler on a TCP listener with timeouts and graceful
// shutdown. Lifecycle: NewServer, Start (binds and serves in the
// background), then Shutdown (drain in-flight requests) and optionally Wait
// (observe the serve loop's exit).
type Server struct {
	handler *Handler
	http    *http.Server
	ln      net.Listener
	serveCh chan error
}

// NewServer builds a server for svc with its own Handler. The service is not
// owned: closing it is the caller's responsibility, after Shutdown.
func NewServer(svc *dynppr.Service, opts ServerOptions) *Server {
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	h := NewHandler(svc, opts.Handler)
	return &Server{
		handler: h,
		http: &http.Server{
			Addr:              opts.Addr,
			Handler:           h,
			ReadTimeout:       readTimeout,
			ReadHeaderTimeout: readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		},
		serveCh: make(chan error, 1),
	}
}

// Handler returns the server's API handler (for its metrics).
func (s *Server) Handler() *Handler { return s.handler }

// Start binds the listen address and starts serving in a background
// goroutine. It returns once the listener is bound, so Addr is valid — and
// the port reachable — when it returns.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		err := s.http.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.serveCh <- err
	}()
	return nil
}

// Addr returns the bound listen address (resolving a requested ":0" port).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.http.Addr
	}
	return s.ln.Addr().String()
}

// URL returns the base URL clients should dial.
func (s *Server) URL() string {
	addr := s.Addr()
	if host, port, err := net.SplitHostPort(addr); err == nil {
		// A wildcard listen address is not dialable; loopback is.
		if host == "" || host == "::" || host == "0.0.0.0" {
			addr = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return "http://" + addr
}

// Shutdown stops accepting connections and waits for in-flight requests to
// drain, up to the context's deadline. It does not close the Service.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Wait blocks until the serve loop exits (after Shutdown or a listener
// failure) and returns its error, nil on clean shutdown.
func (s *Server) Wait() error {
	return <-s.serveCh
}
