// Concurrent-session determinism: every snapshot session executes on its
// own machine, all of them at once over one shared store, and each must
// return exactly the rows a sequential query on the live system returns —
// including bit-identical floating-point aggregates.
package gluenail_test

import (
	"fmt"
	"sync"
	"testing"

	"gluenail"
	"gluenail/internal/bench"
)

// sessionsAgree evaluates goals on the live system, then on n snapshot
// sessions running concurrently, and requires every session to return the
// live rows. It returns the live rows.
func sessionsAgree(t *testing.T, sys *gluenail.System, n int, goals string) [][]gluenail.Value {
	t.Helper()
	ref, err := sys.Query(goals)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*gluenail.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = snap.Query(goals)
		}()
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		rowsEqual(t, fmt.Sprintf("session %d", i), ref.Rows, res.Rows)
	}
	return ref.Rows
}

func rowsEqual(t *testing.T, label string, want, got [][]gluenail.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: row %d arity differs", label, i)
		}
		for c := range want[i] {
			if !want[i][c].Equal(got[i][c]) {
				t.Fatalf("%s: row %d col %d: %v, want %v", label, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// joinSystem builds a 3-way join workload: an n-row a driving probes into
// b and c (fanout rows per key), for the goals joinGoals.
func joinSystem(t *testing.T, n, fanout int) *gluenail.System {
	t.Helper()
	sys := gluenail.New()
	if err := sys.Load(`edb a(X,Y), b(X,Y), c(X,Y);`); err != nil {
		t.Fatal(err)
	}
	keys := n / fanout
	var aRows, bRows, cRows [][]any
	for i := 0; i < n; i++ {
		aRows = append(aRows, []any{i, i % keys})
	}
	for k := 0; k < keys; k++ {
		for j := 0; j < fanout; j++ {
			bRows = append(bRows, []any{k, (k*7 + j) % keys})
			cRows = append(cRows, []any{k, (k*13 + j*997) % n})
		}
	}
	for rel, rows := range map[string][][]any{"a": aRows, "b": bRows, "c": cRows} {
		if err := sys.Assert(rel, rows...); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

const joinGoals = "a(X,Y) & b(Y,Z) & c(Z,W) & V = X*Y + Z*W & V >= 0 & X + W < 500"

// TestParallelJoinDeterminism runs a join-heavy segment on eight
// concurrent sessions.
func TestParallelJoinDeterminism(t *testing.T) {
	if rows := sessionsAgree(t, joinSystem(t, 4000, 4), 8, joinGoals); len(rows) == 0 {
		t.Fatal("join produced no rows; workload broken")
	}
}

// TestParallelAggregateDeterminism checks bit-identical float aggregates
// across concurrent sessions; mean and std_dev are floating-point folds, so
// any change in evaluation order shows up in the low bits.
func TestParallelAggregateDeterminism(t *testing.T) {
	sys := gluenail.New()
	if err := sys.Load(`
edb v(G, X);
stats(G, M, S, C) :- v(G, X) & group_by(G) & M = mean(X) & S = std_dev(X) & C = count(X).
`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 6000)
	for i := 0; i < 6000; i++ {
		rows = append(rows, []any{i % 23, float64(i%997) * 1.0001})
	}
	if err := sys.Assert("v", rows...); err != nil {
		t.Fatal(err)
	}
	if got := sessionsAgree(t, sys, 8, "stats(G, M, S, C)"); len(got) != 23 {
		t.Fatalf("expected 23 groups, got %d", len(got))
	}
}

// TestParallelDedupCallDeterminism exercises duplicate elimination at a
// pipeline break followed by a procedure-call barrier (the E3 workload)
// on concurrent sessions.
func TestParallelDedupCallDeterminism(t *testing.T) {
	sys := bench.NewDupSystem(500, 8)
	if rows := sessionsAgree(t, sys, 8, "wide(X, _) & ident(X) & follow(X, Y)"); len(rows) == 0 {
		t.Fatal("dup workload produced no rows")
	}
	if sys.Stats().Exec.RowsDeduped == 0 {
		t.Fatal("no rows deduplicated; the break was not exercised")
	}
}

// TestParallelRecursionDeterminism runs transitive closure (recursive
// NAIL!, uniondiff deltas) on concurrent sessions.
func TestParallelRecursionDeterminism(t *testing.T) {
	sys := bench.NewTCSystem(bench.RandomEdges(200, 600, 11))
	if rows := sessionsAgree(t, sys, 4, "tc(X, Y)"); len(rows) == 0 {
		t.Fatal("closure is empty")
	}
}

// TestWorkerCountSweep pins result equality across a range of concurrent
// session counts, not just 8.
func TestWorkerCountSweep(t *testing.T) {
	sys := joinSystem(t, 2000, 4)
	for _, w := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			sessionsAgree(t, sys, w, joinGoals)
		})
	}
}
