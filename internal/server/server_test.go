package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gluenail"
)

const tcProgram = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

// startServer spins up a server over a fresh System on a loopback
// listener and tears both down with the test.
func startServer(t *testing.T, cfg Config) (addr string, srv *Server, sys *gluenail.System) {
	t.Helper()
	if cfg.System == nil {
		cfg.System = gluenail.New()
		if err := cfg.System.Load(tcProgram); err != nil {
			t.Fatal(err)
		}
	}
	sys = cfg.System
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return lis.Addr().String(), srv, sys
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fmtRows renders a result canonically for byte-identity checks.
func fmtRows(res *QueryResult) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Vars, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

func assertChain(t *testing.T, c *Client, from, n int64) {
	t.Helper()
	rows := make([][]any, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, []any{from + i, from + i + 1})
	}
	if err := c.Assert("edge", rows...); err != nil {
		t.Fatal(err)
	}
}

func TestServerRoundTrip(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	c := dial(t, addr)
	assertChain(t, c, 1, 4)

	res, err := c.Query("tc(1,X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Vars[0] != "X" {
		t.Fatalf("tc(1,X) = %s", fmtRows(res))
	}

	// Prepared round trip.
	vars, err := c.Prepare("q1", "tc(1,X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "X" {
		t.Fatalf("prepare vars = %v", vars)
	}
	res2, err := c.Execute("q1")
	if err != nil {
		t.Fatal(err)
	}
	if fmtRows(res2) != fmtRows(res) {
		t.Fatal("prepared result differs from direct query")
	}

	// Retract shrinks the closure.
	if err := c.Retract("edge", []any{4, 5}); err != nil {
		t.Fatal(err)
	}
	res3, err := c.Execute("q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 3 {
		t.Fatalf("after retract: %s", fmtRows(res3))
	}

	// Relation dump.
	rel, err := c.Relation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("edge has %d rows", len(rel.Rows))
	}

	// Stats.
	counters, csn, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if counters["reads"] == 0 || counters["writes"] == 0 || csn == 0 {
		t.Fatalf("stats: %v csn=%d", counters, csn)
	}
}

// TestServerSnapshotIsolationOverWire: a read transaction pins one
// snapshot; commits from another session never change its answers.
func TestServerSnapshotIsolationOverWire(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	reader := dial(t, addr)
	writer := dial(t, addr)
	assertChain(t, writer, 1, 5)

	csn, err := reader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	res, err := reader.Query("tc(1,X)")
	if err != nil {
		t.Fatal(err)
	}
	if res.CSN != csn {
		t.Fatalf("read at CSN %d inside transaction pinned at %d", res.CSN, csn)
	}
	before := fmtRows(res)

	assertChain(t, writer, 6, 3) // extends the chain
	if err := writer.Retract("edge", []any{1, 2}); err != nil {
		t.Fatal(err)
	}

	res, err = reader.Query("tc(1,X)")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmtRows(res); got != before {
		t.Fatalf("isolation violation inside txn:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	if err := reader.End(); err != nil {
		t.Fatal(err)
	}
	// Autocommit read now sees the writer's state.
	res, err = reader.Query("tc(1,X)")
	if err != nil {
		t.Fatal(err)
	}
	if fmtRows(res) == before {
		t.Fatal("post-transaction read still sees the old state")
	}
}

// TestServerWriteInReadTxnRejected: every write op bounces inside
// begin/end with the read_only_txn code.
func TestServerWriteInReadTxnRejected(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	c := dial(t, addr)
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, try := range []func() error{
		func() error { return c.Assert("edge", []any{1, 2}) },
		func() error { return c.Retract("edge", []any{1, 2}) },
		func() error { return c.Load("edb extra(X);") },
	} {
		err := try()
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeReadOnlyTxn {
			t.Fatalf("write in read txn: got %v, want code %s", err, CodeReadOnlyTxn)
		}
	}
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if err := c.Assert("edge", []any{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestServerConcurrentSessions drives parallel readers (pinned
// transactions byte-comparing their answers) against a concurrent
// writer: the acceptance scenario, over the wire, race-detected.
func TestServerConcurrentSessions(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	seed := dial(t, addr)
	assertChain(t, seed, 1, 20)
	assertChain(t, seed, 1000, 5)

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Begin(); err != nil {
				errs <- err
				return
			}
			res, err := c.Query("tc(1,X)")
			if err != nil {
				errs <- err
				return
			}
			want := fmtRows(res)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Query("tc(1,X)")
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %v", r, i, err)
					return
				}
				if got := fmtRows(res); got != want {
					errs <- fmt.Errorf("reader %d iter %d: isolation violation", r, i)
					return
				}
			}
		}(r)
	}
	// Writer churns the disjoint component.
	for i := int64(0); i < 40; i++ {
		if err := seed.Assert("edge", []any{2000 + i, 2001 + i}); err != nil {
			errs <- err
			break
		}
		if err := seed.Retract("edge", []any{1000 + i%5, 1001 + i%5}); err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestServerSessionBudget: the per-session governor budget maps to a
// typed wire error.
func TestServerSessionBudget(t *testing.T) {
	sys := gluenail.New()
	if err := sys.Load(tcProgram); err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startServer(t, Config{
		System:        sys,
		SessionBudget: gluenail.Budget{MaxTuples: 50},
	})
	c := dial(t, addr)
	assertChain(t, c, 1, 30)

	_, err := c.Query("tc(X,Y)") // closure of a 30-chain: 465 tuples
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeMemoryBudget {
		t.Fatalf("budgeted query: got %v, want code %s", err, CodeMemoryBudget)
	}
	// Small queries still fit the budget.
	if _, err := c.Query("edge(1,X)"); err != nil {
		t.Fatal(err)
	}
}

// TestServerSessionCap: connections past MaxSessions are turned away.
func TestServerSessionCap(t *testing.T) {
	addr, _, _ := startServer(t, Config{MaxSessions: 1})
	_ = dial(t, addr) // occupies the only slot
	if _, err := Dial(addr, 2*time.Second); err == nil {
		t.Fatal("second session admitted past MaxSessions=1")
	}
}

// TestServerBadRequests: malformed operands map to bad_request without
// killing the session.
func TestServerBadRequests(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	c := dial(t, addr)
	for _, req := range []*Request{
		{Op: "query"},
		{Op: "execute", Name: "nope"},
		{Op: "end"},
		{Op: "assert"},
		{Op: "frobnicate"},
	} {
		_, err := c.roundTrip(req)
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeBadRequest {
			t.Fatalf("%s: got %v, want code %s", req.Op, err, CodeBadRequest)
		}
	}
	// The session still works.
	if err := c.Assert("edge", []any{1, 2}); err != nil {
		t.Fatal(err)
	}
	// A parse error in goals maps to query_error.
	_, err := c.Query("tc(1,")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeQueryError {
		t.Fatalf("parse error: got %v, want code %s", err, CodeQueryError)
	}
}
