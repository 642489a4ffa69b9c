package gluenail

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Focused tests for less-travelled branches found by coverage analysis.

func TestWithInputAndReadLine(t *testing.T) {
	var out bytes.Buffer
	sys := New(WithInput(strings.NewReader("hello\n")), WithOutput(&out))
	sys.Load(`
edb got(L);
proc slurp(:)
  got(L) := read_line(L) & write('read:', L).
  return(:) := got(_).
end
`)
	if _, err := sys.Call("main", "slurp"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read: hello") {
		t.Errorf("output = %q", out.String())
	}
}

func TestNlBuiltin(t *testing.T) {
	var out bytes.Buffer
	sys := New(WithOutput(&out))
	sys.Load(`
edb x(V), done();
proc go(:)
  done() := x(_) & write('a') & nl() & write('b').
  return(:) := done().
end
`)
	sys.Assert("x", []any{1})
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "a\n\nb\n" {
		t.Errorf("output = %q", out.String())
	}
}

// TestAdaptiveIndexing: the system's one index policy is the adaptive one
// (§10), so repeated bound queries build an index. The storage package's
// policy tests cover the never/always alternatives.
func TestAdaptiveIndexing(t *testing.T) {
	sys := New()
	sys.Load(`edb e(X,Y);`)
	rows := make([][]any, 100)
	for i := range rows {
		rows[i] = []any{i % 10, i}
	}
	sys.Assert("e", rows...)
	for i := 0; i < 10; i++ {
		if _, err := sys.Query("e(3, Y)"); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().EDB.IndexBuilds == 0 {
		t.Error("adaptive policy should build an index for repeated lookups")
	}
}

func TestLoadFileAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.glue")
	if err := os.WriteFile(path, []byte("edb p(X);\np(1).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys := New()
	if err := sys.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("p(X)")
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("rows = %v err = %v", res, err)
	}
	if err := sys.LoadFile(filepath.Join(t.TempDir(), "missing.glue")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestUnchangedOnProcedureRejected(t *testing.T) {
	sys := New()
	sys.Load(`
edb e(X);
proc helper(:X)
  return(:X) := e(X).
end
proc go(:)
  repeat
    e(1) += e(_).
  until unchanged(helper(_));
  return(:) := e(_).
end
`)
	_, err := sys.Call("main", "go")
	if err == nil || !strings.Contains(err.Error(), "requires a relation") {
		t.Errorf("unchanged over a procedure should be rejected: %v", err)
	}
}

func TestNegatedDynamicDispatch(t *testing.T) {
	// !S(X) through a predicate variable bound to a set name.
	sys := New()
	sys.Load(`
edb universe(X), banned_set(S), allowed(X);
proc filter(:)
  allowed(X) := universe(X) & banned_set(S) & !S(X).
  return(:) := universe(_).
end
edb bad(X);
`)
	sys.Assert("universe", []any{1}, []any{2}, []any{3})
	sys.Assert("bad", []any{2})
	sys.Assert("banned_set", []any{Str("bad")})
	if _, err := sys.Call("main", "filter"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("allowed", 1)
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 3 {
		t.Errorf("allowed = %v", rows)
	}
}

func TestNegatedFamilyDispatch(t *testing.T) {
	// !S(X) where S names a NAIL! family instance.
	sys := New()
	sys.Load(`
edb attends(N, C), person(N), absent(C, N);
students(C)(N) :- attends(N, C).
proc mark_absent(:)
  absent(C, N) := person(N) & roster(S, C) & !S(N).
  return(:) := person(_).
end
edb roster(S, C);
`)
	sys.Assert("person", []any{"ann"}, []any{"bob"})
	sys.Assert("attends", []any{"ann", "db"})
	sys.Assert("roster", []any{Compound("students", Str("db")), "db"})
	if _, err := sys.Call("main", "mark_absent"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("absent", 2)
	if len(rows) != 1 || rows[0][1].Str() != "bob" {
		t.Errorf("absent = %v", rows)
	}
}

func TestDispatchToUnknownNameYieldsNothing(t *testing.T) {
	sys := New()
	sys.Load(`
edb holder(S), out(X);
proc go(:)
  out(X) := holder(S) & S(X).
  return(:) := holder(_).
end
`)
	sys.Assert("holder", []any{Str("no_such_relation")})
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("out", 1)
	if len(rows) != 0 {
		t.Errorf("dispatch to unknown name should match nothing: %v", rows)
	}
}

func TestRuntimeErrorUnwrap(t *testing.T) {
	sys := New()
	sys.Load(`
edb p(X), out(X);
proc go(:)
  out(Y) := p(X) & Y = X mod 0.
  return(:) := out(_).
end
`)
	sys.Assert("p", []any{1})
	_, err := sys.Call("main", "go")
	if err == nil {
		t.Fatal("expected error")
	}
	// The wrapped chain must expose the root cause to errors.Is-style
	// inspection via Unwrap.
	var last error = err
	for {
		u := errors.Unwrap(last)
		if u == nil {
			break
		}
		last = u
	}
	if !strings.Contains(last.Error(), "mod by zero") {
		t.Errorf("unwrapped cause = %v", last)
	}
}

func TestSaveCSVFileErrorPath(t *testing.T) {
	sys := New()
	sys.Load(`edb p(X);`)
	sys.Assert("p", []any{1})
	if _, err := sys.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveCSVFile("p", 1, filepath.Join("/nonexistent-dir", "x.csv")); err == nil {
		t.Error("unwritable path should fail")
	}
	if err := sys.SaveCSVFile("absent", 2, filepath.Join(t.TempDir(), "x.csv")); err == nil {
		t.Error("missing relation should fail")
	}
	// Success path.
	path := filepath.Join(t.TempDir(), "p.csv")
	if err := sys.SaveCSVFile("p", 1, path); err != nil {
		t.Error(err)
	}
}

func TestCompoundArgumentsInMagicHeads(t *testing.T) {
	// A rule head with compound bound arguments (binding propagates
	// through the structure in the adornment computation).
	sys := New()
	sys.Load(`
edb seg(P1, P2);
connected(p(A,B), p(C,D)) :- seg(p(A,B), p(C,D)).
connected(P, R) :- connected(P, Q) & seg(Q, R).
`)
	p := func(x, y int64) Value { return Compound("p", Int(x), Int(y)) }
	sys.Assert("seg", []any{p(0, 0), p(1, 1)}, []any{p(1, 1), p(2, 2)})
	res, err := sys.Query("connected(p(0,0), T)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("connected = %v", res.Rows)
	}
}

func TestWriteOnEmptyInputPrintsNothing(t *testing.T) {
	var out bytes.Buffer
	sys := New(WithOutput(&out))
	sys.Load(`
edb none(X), sink(X);
proc go(:)
  sink(X) := none(X) & write(X).
  return(:) := sink(_).
end
`)
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("output = %q", out.String())
	}
}
