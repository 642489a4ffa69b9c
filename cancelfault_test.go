package gluenail_test

// Cancellation-fault harness ("cancelfault"): the governor's durability
// contract is that an aborted call always leaves the on-disk state at a
// clean statement boundary — the WAL prefix of exactly the statements
// that completed before the abort, never a torn statement. This suite
// injects cancellation deterministically at every statement boundary
// (by counting trace lines) and nondeterministically at randomized
// points inside segments, then recovers the directory and
// checks the durable contents against precomputed statement prefixes.
// It is the governor counterpart of the byte-level WAL fault harness in
// internal/wal/fault_test.go.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gluenail"
)

// cancelStmts are the six bookkeeping statements of the fault workload.
// Statement j derives rows tagged j in their first column, so the set of
// tags present in the durable mark relation identifies exactly which
// statement prefix committed. Statement 4 reads statement 3's output and
// statement 5 is a cross product, so a randomized cancel can land inside
// a segment.
var cancelStmts = []string{
	"  mark(1, X) += seed(X).",
	"  mark(2, X) += seed(X) & X > 1.",
	"  mark(3, Y) += seed(X) & Y = X * 10.",
	"  mark(4, Y) += mark(3, X) & Y = X + 1.",
	"  mark(5, Y) += seed(X) & seed(Z) & Y = X * 100 + Z.",
	"  mark(6, X) += seed(X).",
}

// cancelProg builds the workload with only the first n mark statements,
// so uninterrupted runs of truncated programs give the ground-truth
// prefix states. Truncation is sound because statement j reads only seed
// and (for j=4) statement 3's output.
func cancelProg(n int) string {
	var sb strings.Builder
	sb.WriteString("edb mark(S, X);\nedb seed(X);\n\nproc work(:)\n")
	for i := 0; i < n; i++ {
		sb.WriteString(cancelStmts[i])
		sb.WriteByte('\n')
	}
	sb.WriteString("  return(:) := seed(_).\nend\n")
	return sb.String()
}

func seedCancel(t *testing.T, sys *gluenail.System, n int64) {
	t.Helper()
	if err := sys.Assert("seed", seedRows(n)...); err != nil {
		t.Fatal(err)
	}
}

// seedRows returns the seed facts 1..n.
func seedRows(n int64) [][]any {
	rows := make([][]any, 0, n)
	for i := int64(1); i <= n; i++ {
		rows = append(rows, []any{i})
	}
	return rows
}

// cancelPrefixes runs each truncated program to completion in memory and
// returns prefixes[k] = durable mark contents after exactly k statements.
func cancelPrefixes(t *testing.T, seedN int64) []string {
	t.Helper()
	prefixes := make([]string, len(cancelStmts)+1)
	for k := 0; k <= len(cancelStmts); k++ {
		mem := gluenail.New()
		if err := mem.Load(cancelProg(k)); err != nil {
			t.Fatalf("load prefix %d: %v", k, err)
		}
		seedCancel(t, mem, seedN)
		if _, err := mem.Call("main", "work", []any{}); err != nil {
			t.Fatalf("prefix %d run: %v", k, err)
		}
		prefixes[k] = relDump(t, mem, "mark", 2)
	}
	return prefixes
}

// stmtCancelWriter is a trace sink that cancels a context as soon as it
// has seen k statement trace lines. Statement lines start with "  ["
// (see vm.execStmt); "call"/"return from" frame lines are ignored. The
// trace line for statement k is emitted after its pipeline ran but
// before its head is applied and committed — and the governor's next
// check site is the following instruction boundary — so cancelling on
// line k lets statement k commit and aborts strictly before k+1.
type stmtCancelWriter struct {
	mu     sync.Mutex
	buf    []byte
	k      int
	seen   int
	cancel context.CancelFunc
}

func (w *stmtCancelWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if strings.HasPrefix(line, "  [") {
			w.seen++
			if w.seen == w.k {
				w.cancel()
			}
		}
	}
}

// TestCancelAtStatementBoundaryPrefix is the deterministic suite: for
// every statement index k, cancel the call right after statement k's trace
// line, crash (abandon without Close), recover the directory, and require
// the durable state to be byte-identical to the uninterrupted run of the
// k-statement prefix. Then re-run the recovered system to completion and
// require byte-identity with a full run. The workers axis runs that many
// systems through the same schedule concurrently, each on its own
// directory: one system's cancellation and recovery must not disturb
// another's.
func TestCancelAtStatementBoundaryPrefix(t *testing.T) {
	const seedN = 3
	prefixes := cancelPrefixes(t, seedN)

	// k ranges over 0 (cancel before any statement) .. 7 (cancel on the
	// return statement's line, after every mark statement committed).
	for _, workers := range []int{1, 2, 4, 8} {
		for k := 0; k <= len(cancelStmts)+1; k++ {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for i := range errs {
					dir := t.TempDir()
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = cancelAtBoundary(dir, k, seedN, prefixes)
					}()
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("system %d: %v", i, err)
					}
				}
			})
		}
	}
}

// cancelAtBoundary runs one TestCancelAtStatementBoundaryPrefix schedule
// on a fresh durable system in dir, seeded with 1..seedN.
func cancelAtBoundary(dir string, k int, seedN int64, prefixes []string) error {
	full := prefixes[len(cancelStmts)]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cw := &stmtCancelWriter{k: k, cancel: cancel}
	sys, err := gluenail.Open(dir,
		gluenail.WithFsync(gluenail.FsyncAlways),
		gluenail.WithTrace(cw))
	if err != nil {
		return err
	}
	if err := sys.Load(cancelProg(len(cancelStmts))); err != nil {
		return err
	}
	if err := sys.Assert("seed", seedRows(seedN)...); err != nil {
		return err
	}
	if k == 0 {
		cancel()
	}
	_, callErr := sys.CallContext(ctx, "main", "work", []any{})
	if k <= len(cancelStmts) {
		if !errors.Is(callErr, gluenail.ErrCanceled) {
			return fmt.Errorf("want ErrCanceled at k=%d, got %v", k, callErr)
		}
	} else if callErr != nil && !errors.Is(callErr, gluenail.ErrCanceled) {
		// Cancelling on the final (return) statement's line may race the
		// call finishing; either is a clean outcome.
		return fmt.Errorf("unexpected error at k=%d: %v", k, callErr)
	}

	// Simulated crash: abandon without Close, recover the dir.
	want := prefixes[min(k, len(cancelStmts))]
	re, err := gluenail.Open(dir)
	if err != nil {
		return err
	}
	if got, err := relText(re, "mark", 2); err != nil || got != want {
		return fmt.Errorf("recovered state is not the statement-%d prefix (err %v):\ngot:\n%swant:\n%s",
			min(k, len(cancelStmts)), err, got, want)
	}

	// Resume: the recovered system re-run to completion must be
	// byte-identical to a never-interrupted run.
	if err := re.Load(cancelProg(len(cancelStmts))); err != nil {
		return err
	}
	if _, err := re.Call("main", "work", []any{}); err != nil {
		return err
	}
	if got, err := relText(re, "mark", 2); err != nil || got != full {
		return fmt.Errorf("resumed run diverged from uninterrupted run (err %v):\ngot:\n%swant:\n%s", err, got, full)
	}
	return re.Close()
}

// TestRandomizedCancelLandsOnPrefix is the nondeterministic suite:
// cancellation and deadline faults injected at arbitrary wall-clock
// points — including mid-statement, inside segments —
// must still recover to SOME clean statement prefix, never a torn state.
func TestRandomizedCancelLandsOnPrefix(t *testing.T) {
	const seedN = 24 // statement 5 derives 24x24 rows
	prefixes := cancelPrefixes(t, seedN)
	prefixSet := make(map[string]int, len(prefixes))
	for k, p := range prefixes {
		prefixSet[p] = k
	}

	const trials = 14
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			opts := []gluenail.Option{
				gluenail.WithFsync(gluenail.FsyncAlways),
				gluenail.WithOutput(io.Discard),
			}
			// Alternate fault kind: even trials cancel after a staggered
			// delay, odd trials inject a context deadline.
			delay := time.Duration(200+700*trial) * time.Microsecond
			if trial%2 == 1 {
				opts = append(opts, gluenail.WithBudget(gluenail.Budget{Timeout: delay}))
			}
			sys, err := gluenail.Open(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Load(cancelProg(len(cancelStmts))); err != nil {
				t.Fatal(err)
			}
			seedCancel(t, sys, seedN)
			ctx, cancel := context.WithCancel(context.Background())
			if trial%2 == 0 {
				go func() {
					time.Sleep(delay)
					cancel()
				}()
			}
			_, callErr := sys.CallContext(ctx, "main", "work", []any{})
			cancel()
			if callErr != nil &&
				!errors.Is(callErr, gluenail.ErrCanceled) &&
				!errors.Is(callErr, gluenail.ErrTimeout) {
				t.Fatalf("unexpected error kind: %v", callErr)
			}

			re, err := gluenail.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := relDump(t, re, "mark", 2)
			k, ok := prefixSet[got]
			if !ok {
				t.Fatalf("recovered state matches no statement prefix (torn commit?):\n%s", got)
			}
			t.Logf("delay=%v err=%v -> recovered at statement prefix %d", delay, callErr, k)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
