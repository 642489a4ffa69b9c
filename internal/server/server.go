package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gluenail"
)

// Config tunes a Server. The zero value of every field picks a sensible
// default; System is required.
type Config struct {
	// System is the database the server fronts. The server owns its use
	// (sessions write through it and snapshot from it) but not its
	// lifecycle: the caller still Checkpoints/Closes it after Shutdown.
	System *gluenail.System
	// SessionBudget is the per-session QoS budget: every statement a
	// session runs is governed by these limits (zero value = the
	// system's configured budget).
	SessionBudget gluenail.Budget
	// MaxSessions caps concurrent connections; further connects are
	// turned away with an admission error (0 = 1024).
	MaxSessions int
	// MaxStatements caps statements executing at once across all
	// sessions — the admission gate. Excess statements queue on the
	// gate (FIFO by goroutine wakeup) rather than failing (0 =
	// 2×GOMAXPROCS).
	MaxStatements int
	// Logf, when non-nil, receives one line per session lifecycle event
	// and per accept/serve error.
	Logf func(format string, args ...any)
}

// Server accepts gluenaild sessions over a listener. Reads execute on
// MVCC snapshots concurrently; writes serialize through the System.
// Shutdown drains in-flight statements (the governor cancels stragglers)
// and closes every session.
type Server struct {
	cfg Config

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	sessions int
	nextID   uint64

	admit    chan struct{} // admission gate: one slot per executing statement
	active   atomic.Int64  // executing statements, reported by the stats op
	totals   counters
	draining atomic.Bool
	// stmts tracks in-flight statements so Shutdown can drain them;
	// connWG tracks session goroutines so Shutdown can join them.
	stmts  sync.WaitGroup
	connWG sync.WaitGroup
	// baseCtx parents every statement context; cancelBase aborts
	// stragglers through the governor when the drain deadline passes.
	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// counters aggregates server-lifetime statistics, reported by the stats
// op.
type counters struct {
	statements atomic.Int64
	reads      atomic.Int64
	writes     atomic.Int64
	errors     atomic.Int64
	sessions   atomic.Int64
}

// New creates a server over cfg.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("server: Config.System is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.MaxStatements <= 0 {
		cfg.MaxStatements = 2 * runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		conns:      make(map[net.Conn]struct{}),
		admit:      make(chan struct{}, cfg.MaxStatements),
		baseCtx:    ctx,
		cancelBase: cancel,
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts sessions on lis until Shutdown (or a permanent accept
// error). It blocks; run it on its own goroutine.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() || s.sessions >= s.cfg.MaxSessions {
			code := CodeShutdown
			if !s.draining.Load() {
				code = CodeAdmission
			}
			s.mu.Unlock()
			_ = WriteFrame(conn, &Response{Err: &WireError{
				Code: code, Message: "server not accepting sessions"}})
			conn.Close()
			continue
		}
		s.sessions++
		s.nextID++
		id := s.nextID
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.totals.sessions.Add(1)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			sess := newSession(s, conn, id)
			sess.serve()
			s.mu.Lock()
			delete(s.conns, conn)
			s.sessions--
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Shutdown drains the server: stop accepting, reject new statements,
// wait for in-flight statements up to ctx's deadline, cancel stragglers
// through the governor, then end every session's read and join the session
// goroutines. Safe to call once; the System is left quiescent for the
// caller to checkpoint and close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	// Drain in-flight statements; past the deadline, cancel them (the
	// governor aborts each at its next cooperative check, discarding the
	// interrupted statement's WAL deltas).
	done := make(chan struct{})
	go func() { s.stmts.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("shutdown: drain deadline passed, cancelling in-flight statements")
		s.cancelBase()
		<-done
		err = ctx.Err()
	}
	s.cancelBase()

	// All statements finished: wake every session blocked reading its next
	// request and join their goroutines. A read deadline rather than
	// Close, so a session still writing its last statement's response
	// delivers it (within the drain budget, if ctx has one) before its
	// read fails and it closes the connection itself.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
		if dl, ok := ctx.Deadline(); ok {
			c.SetWriteDeadline(dl)
		}
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// beginStatement passes the admission gate and registers an in-flight
// statement: the returned context governs it, and done must run when it
// finishes. A draining server, a cancelled caller context, or a closed
// gate admits nothing.
func (s *Server) beginStatement(ctx context.Context) (context.Context, func(), *WireError) {
	if s.draining.Load() {
		return nil, nil, &WireError{Code: CodeShutdown, Message: "server is shutting down"}
	}
	select {
	case s.admit <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, &WireError{Code: CodeCanceled, Message: "statement cancelled while queued for admission"}
	case <-s.baseCtx.Done():
		return nil, nil, &WireError{Code: CodeShutdown, Message: "server is shutting down"}
	}
	if s.draining.Load() {
		<-s.admit
		return nil, nil, &WireError{Code: CodeShutdown, Message: "server is shutting down"}
	}
	s.stmts.Add(1)
	s.active.Add(1)
	s.totals.statements.Add(1)
	stmtCtx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.baseCtx, cancel)
	done := func() {
		stop()
		cancel()
		s.active.Add(-1)
		s.stmts.Done()
		<-s.admit
	}
	return stmtCtx, done, nil
}

// ErrServerClosed reports an operation on a draining server.
var ErrServerClosed = errors.New("server: shutting down")
