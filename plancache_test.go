package gluenail

import (
	"math/rand"
	"strings"
	"testing"
)

// System-level tests for the prepared-plan cache and the vectorized batch
// kernels: repeated queries must hit the cache, stats-epoch changes and
// selectivity drift must invalidate it, and every cache/kernel ablation
// must return byte-identical rows.

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
	// Semi-naive deltas move their stats epochs between iterations, so the
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

// TestPlanCacheEpochInvalidation grows a relation past the geometric
// stats-epoch threshold between runs: the cached plan must be dropped (a
// miss, not a stale answer) and the new rows must appear in the results.
func TestPlanCacheEpochInvalidation(t *testing.T) {
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
	// Quadruple the relation: well past the doubling threshold.
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
		t.Fatalf("relation quadrupled but the cache never missed (epoch key inert)")
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

// TestPlanCacheBatchAblationGrid runs a join/negation/aggregation workload
// across every cache × kernel combination; all must return
// byte-identical rows, on the first and on a repeated (cache-served) run.
func TestPlanCacheBatchAblationGrid(t *testing.T) {
	const program = `
edb edge(X,Y), blocked(X);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
reach(X,Y) :- tc(X,Y) & !blocked(Y).
fanout(X,N) :- tc(X,Y) & group_by(X) & N = count(Y).
`
	rng := rand.New(rand.NewSource(7))
	var edges [][]any
	for i := 0; i < 120; i++ {
		edges = append(edges, []any{rng.Intn(30), rng.Intn(30)})
	}
	var blocked [][]any
	for i := 0; i < 30; i += 3 {
		blocked = append(blocked, []any{i})
	}
	queries := []string{"tc(1, X)", "reach(1, X)", "fanout(X, N)"}
	configs := map[string][]Option{
		"cache+batch":    nil,
		"cache+scalar":   {WithBatchKernels(false)},
		"nocache+batch":  {WithPlanCache(false)},
		"nocache+scalar": {WithPlanCache(false), WithBatchKernels(false)},
	}
	var ref []string
	var refName string
	for name, opts := range configs {
		sys := New(opts...)
		if err := sys.Load(program); err != nil {
			t.Fatal(err)
		}
		sys.Assert("edge", edges...)
		sys.Assert("blocked", blocked...)
		var got []string
		for _, q := range queries {
			// Twice: the second run exercises cache-served plans.
			for run := 0; run < 2; run++ {
				res, err := sys.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, q, err)
				}
				got = append(got, rowsKey(res))
			}
		}
		if ref == nil {
			ref, refName = got, name
			for i := 0; i < len(ref); i += 2 {
				if ref[i] == "" {
					t.Fatalf("query %q returned no rows; nothing exercised", queries[i/2])
				}
			}
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s disagrees with %s on %s (run %d):\n%s\nvs\n%s",
					name, refName, queries[i/2], i%2, got[i], ref[i])
			}
		}
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
// enabled systems report the cache counters for exactly the analyzed run,
// disabled ones say so.
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

	off := New(WithPlanCache(false))
	if err := off.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := off.Assert("edge", chainFacts(10)...); err != nil {
		t.Fatal(err)
	}
	text, err = off.ExplainAnalyze("tc(0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "plan cache: disabled") {
		t.Fatalf("disabled cache not reported by EXPLAIN ANALYZE:\n%s", text)
	}
}

// TestPlanCacheRepeatedQueryAllocs pins the point of the cache: a repeated
// query allocates strictly less with the cache on than off, because the
// greedy reorder's op clones are gone from the hot path.
func TestPlanCacheRepeatedQueryAllocs(t *testing.T) {
	run := func(opts ...Option) float64 {
		sys := New(opts...)
		if err := sys.Load(chainProgram); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", chainFacts(30)...); err != nil {
			t.Fatal(err)
		}
		// A non-recursive bound query: execution is tiny, so the planner's
		// op clones dominate the uncached per-run allocations. Warm
		// everything once (compilation, temp relations, first plan).
		const q = "edge(0, X) & edge(X, Y) & edge(Y, Z)"
		for i := 0; i < 3; i++ {
			if _, err := sys.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sys.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	cached := run()
	uncached := run(WithPlanCache(false))
	if cached >= uncached {
		t.Fatalf("cached repeated query allocates %.0f objects/op, uncached %.0f — caching saves nothing",
			cached, uncached)
	}
	t.Logf("allocs/query: cached=%.0f uncached=%.0f", cached, uncached)
}
