package gluenail

import (
	"strings"
	"testing"
)

// System-level tests for the prepared-plan cache: repeated queries must
// hit the cache, cardinality-class changes and selectivity drift must
// invalidate it, prepared handles must answer exactly like ad-hoc queries,
// and a repeat loop's iterations must neither re-plan nor re-allocate their
// fixed per-statement state.

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

const chainProgram = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

func chainFacts(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i + 1}
	}
	return rows
}

func TestPlanCacheRepeatedQueryHits(t *testing.T) {
	sys := New()
	if err := sys.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", chainFacts(50)...); err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 10; i++ {
		res, err := sys.Query("tc(0, X)")
		if err != nil {
			t.Fatal(err)
		}
		key := rowsKey(res)
		if i == 0 {
			want = key
		} else if key != want {
			t.Fatalf("run %d returned different rows", i)
		}
	}
	st := sys.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("10 identical queries produced no plan-cache hits: %+v", st)
	}
	// Semi-naive inputs cross cardinality classes as they grow, so the
	// recursive query legitimately re-plans sometimes. A non-recursive
	// EDB-only query is the steady-state hot path: after a warm-up run,
	// every rerun must be all hits.
	if _, err := sys.Query("edge(0, X) & edge(X, Y)"); err != nil {
		t.Fatal(err)
	}
	misses := sys.PlanCacheStats().Misses
	for i := 0; i < 5; i++ {
		if _, err := sys.Query("edge(0, X) & edge(X, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.PlanCacheStats().Misses; got != misses {
		t.Fatalf("steady-state reruns missed the cache: %d -> %d misses", misses, got)
	}
}

// TestPlanCacheRepeatLoopHits checks that a repeat loop's body keeps its
// plans: tc(1, X) on a chain runs about one semi-naive iteration per edge,
// and the delta holds one tuple each time. Misses may grow only with the
// number of cardinality classes the inputs pass through, never with the
// iteration count. The loop body is one statement, the rule variant that
// inserts into tc|bf; its delta advances without a statement.
func TestPlanCacheRepeatLoopHits(t *testing.T) {
	run := func(n int) (stats PlanCacheStats, iters int64) {
		sys := New()
		if err := sys.Load(chainProgram); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", chainFacts(n)...); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query("tc(1, X)")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n-1 {
			t.Fatalf("tc(1, X) on a %d-edge chain: %d rows, want %d", n, len(res.Rows), n-1)
		}
		ex := sys.Stats().Exec
		if other := ex.StmtsExecuted - ex.LoopIterations; other < 0 || other > 5 {
			t.Errorf("tc(1, X) on a %d-edge chain ran %d statements over %d loop iterations, want one per iteration and at most 5 others",
				n, ex.StmtsExecuted, ex.LoopIterations)
		}
		return sys.PlanCacheStats(), ex.LoopIterations
	}
	small, _ := run(64)
	large, iters := run(1024)
	t.Logf("64 edges: %+v; 1024 edges: %+v over %d iterations", small, large, iters)
	// 64 -> 1024 edges crosses bits.Len 7 -> 11: four more classes, each
	// costing at most one miss per statement that reads the grown inputs.
	const stmts, extraClasses = 4, 4
	if d := large.Misses - small.Misses; d > stmts*extraClasses {
		t.Errorf("misses grew by %d from 64 to 1024 edges (%d -> %d), want <= %d: the loop re-plans per iteration",
			d, small.Misses, large.Misses, stmts*extraClasses)
	}
	// Each iteration looks up the plan of its statement; every lookup that
	// does not miss hits. Its until condition tests the delta's range and
	// has no plan (while it ran as a statement, 2035 hits and 15 misses).
	if large.Hits < iters-large.Misses {
		t.Errorf("hits = %d over %d loop iterations with %d misses, want >= %d", large.Hits, iters, large.Misses, iters-large.Misses)
	}
}

// TestRepeatIterationAllocs gates what one semi-naive iteration allocates.
// tc(1, X) on a chain of n edges runs about n iterations, each deriving one
// tuple, so the difference between chains of N and 2N edges, divided by N,
// is the marginal allocation count of an iteration — the work a repeat
// loop does besides its new tuples. maxPerIter is the measured value plus
// about 25 % headroom.
func TestRepeatIterationAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop entries, so pooled scratch re-allocates")
	}
	// measured 0.07 (Go 1.24, linux/amd64); 6.1 while the head read a
	// flattened row slab, 10.5 while each store lookup built its key string
	const n, maxPerIter = 256, 0.09
	allocs := func(edges int) float64 {
		sys := New()
		if err := sys.Load(chainProgram); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", chainFacts(edges)...); err != nil {
			t.Fatal(err)
		}
		p, err := sys.Prepare("tc(1, X)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(); err != nil { // warm the plan cache and indexes
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Execute(); err != nil {
				t.Fatal(err)
			}
		})
	}
	perIter := (allocs(2*n) - allocs(n)) / n
	t.Logf("%.2f allocs per repeat iteration", perIter)
	if perIter > maxPerIter {
		t.Errorf("a repeat iteration allocates %.2f objects, want <= %.2f", perIter, maxPerIter)
	}
}

// TestPlanCacheClassInvalidation grows a relation past a power of two
// between runs, into a new cardinality class: the cached plan must be
// dropped (a miss, not a stale answer) and the new rows must appear in the
// results.
func TestPlanCacheClassInvalidation(t *testing.T) {
	sys := New()
	if err := sys.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", chainFacts(20)...); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("warm-up query: %d rows, want 20", len(res.Rows))
	}
	if _, err := sys.Query("tc(0, X)"); err != nil {
		t.Fatal(err)
	}
	misses := sys.PlanCacheStats().Misses
	// Quadruple the relation: two cardinality classes up.
	var more [][]any
	for i := 20; i < 80; i++ {
		more = append(more, []any{i, i + 1})
	}
	if err := sys.Assert("edge", more...); err != nil {
		t.Fatal(err)
	}
	res, err = sys.Query("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 80 {
		t.Fatalf("after growth: %d rows, want 80 (stale plan or stale data?)", len(res.Rows))
	}
	if got := sys.PlanCacheStats().Misses; got == misses {
		t.Fatalf("relation quadrupled but the cache never missed (class key inert)")
	}
}

// TestPlanCacheDriftInvalidation forces stale statistics: the planner's
// static estimate for an always-false comparison (selectivity 0.5) is off
// by far more than the drift factor from the observed 0, so once enough
// rows have been profiled the cached plan must be invalidated and
// re-planned with the observed feedback — after which lookups hit again.
func TestPlanCacheDriftInvalidation(t *testing.T) {
	sys := New()
	if err := sys.Load("edb r(X);"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 200)
	for i := range rows {
		rows[i] = []any{i}
	}
	if err := sys.Assert("r", rows...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := sys.Query("r(X) & X > 100000")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("impossible filter returned %d rows", len(res.Rows))
		}
	}
	st := sys.PlanCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("estimate/observation drift of 0.5 vs 0.0 over 200 rows never invalidated: %+v", st)
	}
	// The re-planned entry bakes the observed selectivity in: further runs
	// must hit, not thrash.
	inval, hits := st.Invalidations, st.Hits
	for i := 0; i < 4; i++ {
		if _, err := sys.Query("r(X) & X > 100000"); err != nil {
			t.Fatal(err)
		}
	}
	st = sys.PlanCacheStats()
	if st.Invalidations != inval {
		t.Fatalf("cache thrashes after feedback re-plan: %d -> %d invalidations",
			inval, st.Invalidations)
	}
	if st.Hits == hits {
		t.Fatal("no hits after feedback re-plan")
	}
}

func TestPreparedExecute(t *testing.T) {
	sys := New()
	if err := sys.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", chainFacts(10)...); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Vars(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("Vars() = %v, want [X]", got)
	}
	direct, err := sys.Query("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(res) != rowsKey(direct) {
			t.Fatalf("run %d: Prepared.Execute disagrees with Query", i)
		}
	}

	// A new Load recompiles the program; the handle must transparently
	// re-prepare and see both the new rule and the new facts.
	if err := sys.Load("tc2(X,Y) :- tc(X,Y).\n"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", []any{10, 11}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute()
	if err != nil {
		t.Fatalf("Execute after recompile: %v", err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("after recompile+assert: %d rows, want 11", len(res.Rows))
	}
}

// TestExplainAnalyzePlanCacheCounters checks the EXPLAIN ANALYZE trailer:
// it reports the cache counters for exactly the analyzed run, and plain
// EXPLAIN carries no trailer.
func TestExplainAnalyzePlanCacheCounters(t *testing.T) {
	sys := New()
	if err := sys.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", chainFacts(10)...); err != nil {
		t.Fatal(err)
	}
	text, err := sys.ExplainAnalyze("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "plan cache: hits=") {
		t.Fatalf("EXPLAIN ANALYZE output lacks the plan-cache line:\n%s", text)
	}
	plain, err := sys.Explain("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "plan cache") {
		t.Fatalf("plain EXPLAIN must not carry the plan-cache line:\n%s", plain)
	}
}
