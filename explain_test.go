package gluenail

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// EXPLAIN golden tests: the rendered physical plan — chosen op order,
// access paths, and estimated cardinalities derived from live EDB
// statistics — is compared byte-for-byte against testdata/explain/*.golden.
// Regenerate with `go test -run TestExplainGolden -update`. Only plain
// EXPLAIN is golden-tested: EXPLAIN ANALYZE output includes index-build
// wall time, which is not deterministic.

var explainCases = []struct {
	name    string
	program string
	facts   func(sys *System)
	goals   string
}{
	{
		name: "tc_bound",
		program: `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`,
		facts: func(sys *System) {
			sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{3, 4}, []any{4, 5})
		},
		goals: "tc(1, X)",
	},
	{
		name: "skewed_join",
		program: `
edb big(X,Y), tiny(Y,Z);
joined(X,Z) :- big(X,Y) & tiny(Y,Z).
`,
		facts: func(sys *System) {
			for i := 0; i < 300; i++ {
				sys.Assert("big", []any{i, i % 2})
			}
			sys.Assert("tiny", []any{0, "a"}, []any{1, "b"})
		},
		goals: "joined(X, Z)",
	},
	{
		name: "negation_filter",
		program: `
edb person(P), banned(P);
ok(P) :- person(P) & !banned(P).
`,
		facts: func(sys *System) {
			sys.Assert("person", []any{"a"}, []any{"b"}, []any{"c"})
			sys.Assert("banned", []any{"b"})
		},
		goals: "ok(P)",
	},
}

func TestExplainGolden(t *testing.T) {
	for _, tc := range explainCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := New()
			if err := sys.Load(tc.program); err != nil {
				t.Fatal(err)
			}
			tc.facts(sys)
			got, err := sys.Explain(tc.goals)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "explain", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN mismatch for %s:\n--- got ---\n%s--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}

// TestExplainAnalyze checks the acceptance contract: EXPLAIN ANALYZE shows
// per-op estimated AND actual cardinalities, and the query's answers are
// unchanged by having been explained.
func TestExplainAnalyze(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{3, 4})

	plain, err := sys.Explain("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain, "est=") {
		t.Error("EXPLAIN lacks estimated cardinalities")
	}
	if strings.Contains(plain, "act_in=") {
		t.Error("plain EXPLAIN must not show actuals")
	}

	analyzed, err := sys.ExplainAnalyze("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est=", "act_in=", "act_out=", "probe", "scan"} {
		if !strings.Contains(analyzed, want) {
			t.Errorf("EXPLAIN ANALYZE output lacks %q:\n%s", want, analyzed)
		}
	}

	res, err := sys.Query("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("query after EXPLAIN ANALYZE returned %d rows, want 3", len(res.Rows))
	}
}

// TestExplainAnalyzeMove checks that EXPLAIN ANALYZE renders a statement
// that ran as a move by its source and the rows it handed over, not as
// segments planned from default estimates: the query forwards tc@ff's
// results (5 edges on a cycle, 25 pairs), and tc@ff moves its result;
// its loop reads the delta as a slot range and advances it.
func TestExplainAnalyzeMove(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{3, 4}, []any{4, 5}, []any{5, 1})
	out, err := sys.ExplainAnalyze("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(2 regs, move)\n    move from call main.tc@ff()->($0,$1) [act_rows=25]\n",
		"(2 regs, move)\n    move from local:'tc|ff'/2 [act_rows=25]\n",
		"match local:'tc|ff|d'/2[lo,hi)($0,$1)",
		"    advance local:'tc|ff'/2\n  } until any of:\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "est=4096") {
		t.Errorf("a move is rendered as segments planned from defaults:\n%s", out)
	}
}

// TestExplainAnalyzeCall exercises the procedure-call variant used by the
// CLI's -explain-analyze -call path.
func TestExplainAnalyzeCall(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb item(N);
item(1). item(2). item(3).
proc doubles(:N,M)
  return(:N,M) := item(N) & M = N * 2.
end
`); err != nil {
		t.Fatal(err)
	}
	out, err := sys.ExplainAnalyzeCall("main", "doubles")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "act_out=") {
		t.Errorf("ExplainAnalyzeCall lacks actuals:\n%s", out)
	}
}

// TestExplainAdaptsToStats checks that EXPLAIN re-plans from current
// statistics: growing one relation past the other flips the chosen join
// order in the rendered plan.
func TestExplainAdaptsToStats(t *testing.T) {
	program := `
edb r(X,Y), s(Y,Z);
j(X,Z) :- r(X,Y) & s(Y,Z).
`
	leadsWith := func(sys *System, t *testing.T) string {
		t.Helper()
		out, err := sys.Explain("j(X, Z)")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "match edb:") {
				return line[len("match edb:"):][:1]
			}
		}
		t.Fatalf("no edb match in plan:\n%s", out)
		return ""
	}
	sys := New()
	if err := sys.Load(program); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sys.Assert("r", []any{i, i % 3})
	}
	sys.Assert("s", []any{0, 0}, []any{1, 1}, []any{2, 2})
	if got := leadsWith(sys, t); got != "s" {
		t.Errorf("with r huge the plan should lead with s, got %q", got)
	}

	sys2 := New()
	if err := sys2.Load(program); err != nil {
		t.Fatal(err)
	}
	sys2.Assert("r", []any{0, 0}, []any{1, 1})
	for i := 0; i < 200; i++ {
		sys2.Assert("s", []any{i % 3, i})
	}
	if got := leadsWith(sys2, t); got != "r" {
		t.Errorf("with s huge the plan should lead with r, got %q", got)
	}
}
