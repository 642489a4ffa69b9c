package gluenail

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rowsAsInts extracts single-column integer results.
func rowsAsInts(t *testing.T, res *Result) []int64 {
	t.Helper()
	var out []int64
	for _, r := range res.Rows {
		if len(r) != 1 {
			t.Fatalf("row arity %d, want 1", len(r))
		}
		out = append(out, r[0].Int())
	}
	return out
}

func wantInts(t *testing.T, res *Result, want ...int64) {
	t.Helper()
	got := rowsAsInts(t, res)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEDBQuery(t *testing.T) {
	sys := New()
	if err := sys.Load(`edb edge(X,Y);`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{1, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("edge(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "X" {
		t.Errorf("vars = %v", res.Vars)
	}
	wantInts(t, res, 2, 3)
}

func TestTransitiveClosureRules(t *testing.T) {
	sys := New()
	err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 1 -> 2 -> 3 -> 4 plus a side edge.
	sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{3, 4}, []any{2, 9})
	res, err := sys.Query("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res, 2, 3, 4, 9)
	// Bound query exercises the magic-set path.
	res, err = sys.Query("tc(2, X)")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res, 3, 4, 9)
	// Fully bound.
	res, err = sys.Query("tc(1, 4)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("tc(1,4) rows = %d", len(res.Rows))
	}
	res, err = sys.Query("tc(4, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("tc(4,X) rows = %v", res.Rows)
	}
}

func TestPaperTcProcedure(t *testing.T) {
	// §4's tc_e procedure, verbatim semantics.
	sys := New()
	err := sys.Load(`
edb e(X,Y);
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & e(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & e(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("e", []any{1, 2}, []any{2, 3}, []any{3, 1}, []any{7, 8})
	out, err := sys.Call("main", "tc_e", []any{1})
	if err != nil {
		t.Fatal(err)
	}
	// Reachable from 1 over the cycle: 1, 2, 3.
	want := [][2]int64{{1, 1}, {1, 2}, {1, 3}}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i, w := range want {
		if out[i][0].Int() != w[0] || out[i][1].Int() != w[1] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	// Set-at-a-time call with several inputs.
	out, err = sys.Call("main", "tc_e", []any{1}, []any{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 { // (1,1),(1,2),(1,3),(7,8)
		t.Errorf("multi-input call rows = %v", out)
	}
}

func TestIdentityMatrixExample(t *testing.T) {
	// §3.1's identity-matrix statements.
	sys := New(WithOutput(&bytes.Buffer{}))
	err := sys.Load(`
edb row(X), matrix(X,Y,V);
proc fill(:)
  matrix(X,X, 1.0):= row(X).
  matrix(X,Y, 0.0)+= row(X) & row(Y) & X != Y.
  return(:):= row(_).
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("row", []any{1}, []any{2}, []any{3})
	if _, err := sys.Call("main", "fill"); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Relation("matrix", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("matrix has %d entries, want 9", len(rows))
	}
	res, _ := sys.Query("matrix(2, 2, V)")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 1.0 {
		t.Errorf("diagonal = %v", res.Rows)
	}
	res, _ = sys.Query("matrix(1, 2, V)")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 0.0 {
		t.Errorf("off-diagonal = %v", res.Rows)
	}
}

func TestAggregationColdestCity(t *testing.T) {
	// §3.3's coldest-city example.
	sys := New()
	err := sys.Load(`
edb daily_temp(Name, T);
coldest_city(Name) :- daily_temp(Name, T) & MinT = min(T) & T = MinT.
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("daily_temp",
		[]any{"san_francisco", 12}, []any{"madang", 36}, []any{"copenhagen", -2})
	res, err := sys.Query("coldest_city(N)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "copenhagen" {
		t.Errorf("coldest = %v", res.Rows)
	}
}

func TestGroupByCourseAverage(t *testing.T) {
	// §3.3.1's course-average example.
	sys := New()
	err := sys.Load(`
edb course_student_grade(C,S,G);
course_average(C, Avg) :-
  course_student_grade(C,S,G) & group_by(C) & Avg = mean(G).
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("course_student_grade",
		[]any{"cs99", "ann", 80}, []any{"cs99", "bob", 90},
		[]any{"cs101", "cam", 70})
	res, err := sys.Query("course_average(C, A)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Sorted: cs101 then cs99.
	if res.Rows[0][0].Str() != "cs101" || res.Rows[0][1].Float() != 70 {
		t.Errorf("cs101 avg = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "cs99" || res.Rows[1][1].Float() != 85 {
		t.Errorf("cs99 avg = %v", res.Rows[1])
	}
}

func TestAggregationPreservesDuplicates(t *testing.T) {
	// §3.3: two equal temperature readings at different places must both
	// count toward the mean.
	sys := New()
	sys.Load(`edb reading(Place, T);`)
	sys.Assert("reading", []any{"a", 10}, []any{"b", 10}, []any{"c", 40})
	res, err := sys.Query("reading(P, T) & M = mean(T) & P = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := res.Rows[0][2].Float(); got != 20 {
		t.Errorf("mean = %v, want 20 (duplicates preserved)", got)
	}
}

func TestNegation(t *testing.T) {
	sys := New()
	err := sys.Load(`
edb person(X), rich(X);
poor(X) :- person(X) & !rich(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("person", []any{"a"}, []any{"b"}, []any{"c"})
	sys.Assert("rich", []any{"b"})
	res, err := sys.Query("poor(X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "a" || res.Rows[1][0].Str() != "c" {
		t.Errorf("poor = %v", res.Rows)
	}
}

func TestHiLogSets(t *testing.T) {
	// §5's class_info example, simplified: set-valued attributes hold
	// predicate names; S(X) dispatches through the name.
	sys := New()
	err := sys.Load(`
edb attends(N, ID), class_subject(ID, Subj);
students(ID)(N) :- attends(N, ID).
class_info(ID, S) :- class_subject(ID, _) & S = students(ID).
member_of(X, S) :- class_info(_, S) & S(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("attends", []any{"wilson", "cs99"}, []any{"green", "cs99"},
		[]any{"hu", "cs101"})
	sys.Assert("class_subject", []any{"cs99", "databases"}, []any{"cs101", "compilers"})
	// Static ground family reference.
	res, err := sys.Query("students(cs99)(N)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("students(cs99) = %v", res.Rows)
	}
	// Dynamic dispatch through a predicate variable.
	res, err = sys.Query("class_info(cs99, S) & S(N)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("dynamic dispatch rows = %v", res.Rows)
	}
	// The set value is the name, not the extension.
	res, err = sys.Query("class_info(cs101, S)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(Compound("students", Str("cs101"))) {
		t.Errorf("set attribute = %v", res.Rows)
	}
}

func TestSetEqProcedure(t *testing.T) {
	// §5.1's set_eq procedure comparing two sets extensionally.
	sys := New()
	err := sys.Load(`
edb s1(X), s2(X), s3(X);
proc set_eq(S, T:)
rels different(S,T);
  different(S,T):= in(S,T) & S(X) & !T(X).
  different(S,T)+= in(S,T) & T(X) & !S(X).
  return(S,T:):= !different(S,T).
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("s1", []any{1}, []any{2})
	sys.Assert("s2", []any{1}, []any{2})
	sys.Assert("s3", []any{1}, []any{3})
	eq, err := sys.Call("main", "set_eq", []any{Str("s1"), Str("s2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(eq) != 1 {
		t.Errorf("s1 = s2 should hold: %v", eq)
	}
	ne, err := sys.Call("main", "set_eq", []any{Str("s1"), Str("s3")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ne) != 0 {
		t.Errorf("s1 != s3 should hold: %v", ne)
	}
}

func TestUpdatesAndModify(t *testing.T) {
	sys := New()
	err := sys.Load(`
edb account(Id, Bal), bonus(Id);
proc pay(:)
  account(Id, B2) +=[Id] account(Id, B) & bonus(Id) & B2 = B + 100.
  return(:):= account(_, _).
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("account", []any{1, 50}, []any{2, 70})
	sys.Assert("bonus", []any{2})
	if _, err := sys.Call("main", "pay"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("account", 2)
	if len(rows) != 2 {
		t.Fatalf("account rows = %v", rows)
	}
	if rows[0][1].Int() != 50 || rows[1][1].Int() != 170 {
		t.Errorf("balances = %v", rows)
	}
}

func TestInBodyUpdates(t *testing.T) {
	// ++/-- subgoals (Figure 1 uses --possible(It, D)).
	sys := New()
	err := sys.Load(`
edb queue(X), log(X);
proc drain(:)
  repeat
    done(X) := queue(X) & X = min(X) & ++log(X) & --queue(X).
  until empty(queue(_));
  return(:) := log(_).
end
edb done(X);
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("queue", []any{3}, []any{1}, []any{2})
	if _, err := sys.Call("main", "drain"); err != nil {
		t.Fatal(err)
	}
	logRows, _ := sys.Relation("log", 1)
	if len(logRows) != 3 {
		t.Errorf("log = %v", logRows)
	}
	queueRows, _ := sys.Relation("queue", 1)
	if len(queueRows) != 0 {
		t.Errorf("queue not drained: %v", queueRows)
	}
}

func TestWriteBuiltin(t *testing.T) {
	var buf bytes.Buffer
	sys := New(WithOutput(&buf))
	err := sys.Load(`
edb greeting(X);
proc hello(:)
  ok() := greeting(G) & write('hello', G).
  return(:) := ok().
end
edb ok();
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("greeting", []any{"world"}, []any{"moon"})
	if _, err := sys.Call("main", "hello"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hello moon") || !strings.Contains(out, "hello world") {
		t.Errorf("output = %q", out)
	}
	if strings.Index(out, "moon") > strings.Index(out, "world") {
		t.Errorf("write output should be sorted: %q", out)
	}
}

func TestForeignProcedure(t *testing.T) {
	sys := New()
	if err := sys.Register("double", 1, 1, false,
		func(in [][]Value) ([][]Value, error) {
			var out [][]Value
			for _, row := range in {
				out = append(out, []Value{row[0], Int(row[0].Int() * 2)})
			}
			return out, nil
		}); err != nil {
		t.Fatal(err)
	}
	sys.Load(`
edb num(X);
doubled(X, Y) :- num(X) & double(X, Y).
`)
	sys.Assert("num", []any{3}, []any{5})
	res, err := sys.Query("doubled(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 6 || res.Rows[1][1].Int() != 10 {
		t.Errorf("doubled = %v", res.Rows)
	}
}

// TestForeignProcedureKeepsInputs checks that a Go procedure owns the input
// rows it is handed: it keeps every row across two calls and, on the
// second, returns the first call's rows too. The executor builds call
// inputs in reused scratch, so rows it lent would show the second call's
// values in place of the first's.
func TestForeignProcedureKeepsInputs(t *testing.T) {
	sys := New()
	var kept [][]Value
	if err := sys.Register("tag", 1, 1, false, func(in [][]Value) ([][]Value, error) {
		kept = append(kept, in...)
		var out [][]Value
		for _, row := range kept {
			out = append(out, []Value{row[0], Int(row[0].Int() * 10)})
		}
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(`edb a(X), b(X);`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("a", []any{1}, []any{2})
	sys.Assert("b", []any{3}, []any{4})
	for _, q := range []struct {
		goal string
		want string
	}{{"a(X) & tag(X, Y)", "[[1 10] [2 20]]"}, {"b(X) & tag(X, Y)", "[[3 30] [4 40]]"}} {
		res, err := sys.Query(q.goal)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); got != q.want {
			t.Fatalf("%s = %s, want %s", q.goal, got, q.want)
		}
	}
	if got := fmt.Sprint(kept); got != "[[1] [2] [3] [4]]" {
		t.Fatalf("kept inputs = %s, want [[1] [2] [3] [4]]", got)
	}
}

func TestStringBuiltins(t *testing.T) {
	sys := New()
	sys.Load(`edb name(N);`)
	sys.Assert("name", []any{"ada"})
	res, err := sys.Query("name(N) & G = strcat('hi ', N) & L = strlen(N) & S = substr(N, 2, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[1].Str() != "hi ada" || row[2].Int() != 3 || row[3].Str() != "da" {
		t.Errorf("string ops = %v", row)
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	sys := New()
	sys.Load(`edb p(X);`)
	sys.Assert("p", []any{1}, []any{2}, []any{3}, []any{4})
	res, err := sys.Query("p(X) & Y = X*X & Y > 4 & Y mod 2 = 0 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEDBPersistence(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edb.bin"
	sys := New()
	sys.Load(`edb edge(X,Y);`)
	sys.Assert("edge", []any{1, 2})
	if err := sys.SaveEDB(path); err != nil {
		t.Fatal(err)
	}
	sys2 := New()
	sys2.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
`)
	if err := sys2.LoadEDB(path); err != nil {
		t.Fatal(err)
	}
	res, err := sys2.Query("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res, 2)
}

func TestStratifiedNegationThroughRecursionRejected(t *testing.T) {
	sys := New()
	sys.Load(`
edb e(X);
p(X) :- e(X) & !q(X).
q(X) :- e(X) & !p(X).
`)
	_, err := sys.Query("p(X)")
	if err == nil || !strings.Contains(err.Error(), "stratified") {
		t.Errorf("expected stratification error, got %v", err)
	}
}

func TestModulesAcrossImports(t *testing.T) {
	sys := New()
	err := sys.Load(`
module graph;
export reach(X:Y);
edb link(X,Y);
r(X,Y) :- link(X,Y).
r(X,Z) :- r(X,Y) & link(Y,Z).
proc reach(X:Y)
  return(X:Y) := r(X,Y).
end
end
module app;
export go(X:Y);
from graph import reach(X:Y);
proc go(X:Y)
  return(X:Y) := reach(X,Y).
end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("link", []any{1, 2}, []any{2, 3})
	out, err := sys.Call("app", "go", []any{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("go(1) = %v", out)
	}
}

func TestBaselineConfigsAgree(t *testing.T) {
	// Every ablation baseline must compute the same answers.
	var ref []int64
	for _, name := range append([]string{""}, baselineNames()...) {
		sys := New(WithBaseline(name))
		err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.Assert("edge", []any{1, 2}, []any{2, 3}, []any{3, 4}, []any{4, 2})
		res, err := sys.Query("tc(1, X)")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := rowsAsInts(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: got %v, want %v", name, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: got %v, want %v", name, got, ref)
			}
		}
	}
}

func TestWithBaseline(t *testing.T) {
	// A later WithBaseline replaces an earlier one, and "" is the default.
	sys := New(WithBaseline("layered"), WithBaseline("no-magic"))
	if sys.cfg.layered || !sys.cfg.planOpts.NoMagic {
		t.Errorf("second baseline did not replace the first: layered=%v no-magic=%v",
			sys.cfg.layered, sys.cfg.planOpts.NoMagic)
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("the layered store was replaced, yet Snapshot fails: %v", err)
	}
	if sys := New(WithBaseline("naive"), WithBaseline("")); sys.cfg.planOpts.Naive {
		t.Error(`WithBaseline("") kept the earlier baseline`)
	}
	// An unknown name fails Open, listing every valid name.
	_, err := Open(t.TempDir(), WithBaseline("semi-naive"))
	if err == nil {
		t.Fatal("Open accepted an unknown baseline")
	}
	for name := range baselines {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	// On a New system every operation reports it.
	bad := New(WithBaseline("semi-naive"))
	if err := bad.Assert("edge", []any{1, 2}); err == nil || !strings.Contains(err.Error(), "semi-naive") {
		t.Errorf("Assert: %v", err)
	}
	if _, err := bad.Query("edge(X, Y)"); err == nil || !strings.Contains(err.Error(), "semi-naive") {
		t.Errorf("Query: %v", err)
	}
}

// TestStartupErrorFailsEveryOperation calls every error-returning System,
// Prepared and Snapshot operation on a system whose startup failed (an
// unknown baseline) and expects the startup error from each: no operation
// may read, write or export the fallback store in its place. Such a system
// hands out no Prepared or Snapshot, so the test builds the handles
// itself. Snapshot.Relation and Snapshot.Close are left out: they touch
// only a session's captured state, which a failed system never captures.
func TestStartupErrorFailsEveryOperation(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.glue")
	csvPath := filepath.Join(dir, "x.csv")
	for path, text := range map[string]string{src: "edb x(A);\nx(1).\n", csvPath: "1\n"} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys := New(WithBaseline("bogus"))
	prep := &Prepared{sys: sys, module: "main", goals: "x(A)"}
	snap := &Snapshot{sys: sys}
	ctx := context.Background()
	noop := func([][]Value) ([][]Value, error) { return nil, nil }
	ignore := func(_ any, err error) error { return err }
	ops := map[string]func() error{
		"Load":                func() error { return sys.Load("edb x(A);\nx(1).") },
		"LoadContext":         func() error { return sys.LoadContext(ctx, "edb x(A);") },
		"LoadFile":            func() error { return sys.LoadFile(src) },
		"Register":            func() error { return sys.Register("f", 1, 0, false, noop) },
		"Assert":              func() error { return sys.Assert("x", []any{1}) },
		"Retract":             func() error { return sys.Retract("x", []any{1}) },
		"Relation":            func() error { return ignore(sys.Relation("x", 1)) },
		"Query":               func() error { return ignore(sys.Query("x(A)")) },
		"QueryContext":        func() error { return ignore(sys.QueryContext(ctx, "x(A)")) },
		"QueryIn":             func() error { return ignore(sys.QueryIn("main", "x(A)")) },
		"QueryInContext":      func() error { return ignore(sys.QueryInContext(ctx, "main", "x(A)")) },
		"Prepare":             func() error { return ignore(sys.Prepare("x(A)")) },
		"PrepareIn":           func() error { return ignore(sys.PrepareIn("main", "x(A)")) },
		"Explain":             func() error { return ignore(sys.Explain("x(A)")) },
		"ExplainIn":           func() error { return ignore(sys.ExplainIn("main", "x(A)")) },
		"ExplainAnalyze":      func() error { return ignore(sys.ExplainAnalyze("x(A)")) },
		"ExplainAnalyzeIn":    func() error { return ignore(sys.ExplainAnalyzeIn("main", "x(A)")) },
		"ExplainAnalyzeCall":  func() error { return ignore(sys.ExplainAnalyzeCall("main", "p")) },
		"ExplainProcPhysical": func() error { return ignore(sys.ExplainProcPhysical("main", "p")) },
		"ExplainProc":         func() error { return ignore(sys.ExplainProc("main", "p")) },
		"Call":                func() error { return ignore(sys.Call("main", "p")) },
		"CallContext":         func() error { return ignore(sys.CallContext(ctx, "main", "p")) },
		"Procs":               func() error { return ignore(sys.Procs()) },
		"Snapshot":            func() error { return ignore(sys.Snapshot()) },
		"SaveEDB":             func() error { return sys.SaveEDB(filepath.Join(dir, "edb.img")) },
		"LoadEDB":             func() error { return sys.LoadEDB(filepath.Join(dir, "edb.img")) },
		"LoadCSV":             func() error { return sys.LoadCSV("x", strings.NewReader("1\n")) },
		"LoadCSVFile":         func() error { return sys.LoadCSVFile("x", csvPath) },
		"SaveCSV":             func() error { return sys.SaveCSV("x", 1, io.Discard) },
		"SaveCSVFile":         func() error { return sys.SaveCSVFile("x", 1, filepath.Join(dir, "out.csv")) },
		"ScrubEDB":            func() error { return ignore(sys.ScrubEDB(false)) },
		"Checkpoint":          func() error { return sys.Checkpoint() },
		"Degraded":            func() error { return sys.Degraded() },
		"Close":               func() error { return sys.Close() },

		"Prepared.Execute":        func() error { return ignore(prep.Execute()) },
		"Prepared.ExecuteContext": func() error { return ignore(prep.ExecuteContext(ctx)) },

		"Snapshot.Query":          func() error { return ignore(snap.Query("x(A)")) },
		"Snapshot.QueryContext":   func() error { return ignore(snap.QueryContext(ctx, "x(A)")) },
		"Snapshot.QueryIn":        func() error { return ignore(snap.QueryIn("main", "x(A)")) },
		"Snapshot.QueryInContext": func() error { return ignore(snap.QueryInContext(ctx, "main", "x(A)")) },
		"Snapshot.Execute":        func() error { return ignore(snap.Execute(prep)) },
		"Snapshot.ExecuteContext": func() error { return ignore(snap.ExecuteContext(ctx, prep)) },
	}
	for name, op := range ops {
		if err := op(); err == nil || !strings.Contains(err.Error(), `unknown baseline "bogus"`) {
			t.Errorf("%s: err = %v, want the startup error", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "edb.img")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("SaveEDB wrote an image of the fallback store (stat: %v)", err)
	}
}

func TestQueryErrors(t *testing.T) {
	sys := New()
	sys.Load(`edb p(X);`)
	if _, err := sys.Query("nosuch(X)"); err == nil {
		t.Error("unknown predicate should fail")
	}
	if _, err := sys.Query("p(X) & Y < 3"); err == nil {
		t.Error("unbound comparison should fail")
	}
	if _, err := sys.Query("p(X) &"); err == nil {
		t.Error("syntax error should fail")
	}
}

func TestLoopLimit(t *testing.T) {
	sys := New(WithBudget(Budget{MaxLoopIters: 5}))
	err := sys.Load(`
edb tick(X);
proc spin(:)
  repeat
    tick(1) += tick(0).
  until empty(nothing(_));
  return(:) := tick(_).
end
edb nothing(X);
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Assert("tick", []any{0})
	sys.Assert("nothing", []any{1})
	_, err = sys.Call("main", "spin")
	if err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Errorf("expected loop-limit error, got %v", err)
	}
}
