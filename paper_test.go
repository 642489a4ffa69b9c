package gluenail

import (
	"strings"
	"testing"
)

// Every code fragment the paper presents, run as written (modulo the typo
// repairs documented in examples/cad). Section references are to the
// SIGMOD 1991 paper.

// §3.1: "r(X,Y) += s(X,W) & t(f(W,X),Y)."
func TestPaper31CompoundTermJoin(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb r(X,Y), s(X,W), t(K,Y);
proc go(:)
  r(X,Y) += s(X,W) & t(f(W,X),Y).
  return(:) := s(_,_).
end
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("s", []any{1, 10}, []any{2, 20})
	sys.Assert("t",
		[]any{Compound("f", Int(10), Int(1)), 100},
		[]any{Compound("f", Int(20), Int(2)), 200},
		[]any{Compound("f", Int(99), Int(1)), 900}) // no matching s tuple
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("r", 2)
	if len(rows) != 2 {
		t.Fatalf("r = %v", rows)
	}
	if rows[0][1].Int() != 100 || rows[1][1].Int() != 200 {
		t.Errorf("r = %v", rows)
	}
}

// §3.2: the supplementary-relation example
// h(X,W) := a(X,A,B) & b(A,C) & c(B,C,W).
func TestPaper32SupplementaryJoin(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb h(X,W), a(X,A,B), b(A,C), c(B,C,W);
proc go(:)
  h(X,W) := a(X,A,B) & b(A,C) & c(B,C,W).
  return(:) := a(_,_,_).
end
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("a", []any{1, "a1", "b1"}, []any{2, "a2", "b2"})
	sys.Assert("b", []any{"a1", "c1"}, []any{"a2", "c2"})
	sys.Assert("c", []any{"b1", "c1", 77}, []any{"b2", "c9", 88})
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("h", 2)
	// Only the X=1 chain completes: a(1,a1,b1), b(a1,c1), c(b1,c1,77).
	if len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Int() != 77 {
		t.Errorf("h = %v", rows)
	}
}

// §3.3: "max_temp( MaxT ):= temperature( T ) & MaxT = max(T)." with the
// paper's worked values: temperature = {(10),(35)} so MaxT = 35 and
// sup_2 = {(10,35),(35,35)}.
func TestPaper33MaxTemp(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb temperature(T);
max_temp(MaxT) :- temperature(T) & MaxT = max(T).
pairs(T, MaxT) :- temperature(T) & MaxT = max(T).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("temperature", []any{10}, []any{35})
	res, err := sys.Query("max_temp(M)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 35 {
		t.Errorf("max_temp = %v", res.Rows)
	}
	// The supplementary relation after the aggregator: every tuple
	// extended with the aggregate, exactly as the paper's table shows.
	res, err = sys.Query("pairs(T, M)")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{10, 35}, {35, 35}}
	if len(res.Rows) != 2 {
		t.Fatalf("pairs = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].Int() != w[0] || res.Rows[i][1].Int() != w[1] {
			t.Errorf("pairs = %v, want %v", res.Rows, want)
		}
	}
}

// §3.3: the coldest-city example with the paper's table, in both forms —
// the three-subgoal version and the combined "T = min(T)" version.
func TestPaper33ColdestCityBothForms(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb daily_temp(Name, T);
coldest_city(Name) :-
  daily_temp(Name, T) & MinT = min(T) & T = MinT.
coldest_cities(Name) :-
  daily_temp(Name, T) & T = min(T).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("daily_temp",
		[]any{"san_francisco", 12}, []any{"madang", 36}, []any{"copenhagen", -2})
	for _, q := range []string{"coldest_city(N)", "coldest_cities(N)"} {
		res, err := sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "copenhagen" {
			t.Errorf("%s = %v", q, res.Rows)
		}
	}
	// The footnote tie case: "or cities, in the case of a tie."
	sys.Assert("daily_temp", []any{"yakutsk", -2})
	res, _ := sys.Query("coldest_cities(N)")
	if len(res.Rows) != 2 {
		t.Errorf("tie case = %v", res.Rows)
	}
}

// §3.3.1: group_by cascading — a second group_by splits groups further.
func TestPaper331CascadingGroupBy(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb sale(Region, Store, Amount);
by_region(R, Total) :- sale(R, S, A) & group_by(R) & Total = sum(A).
by_store(R, S, Total) :- sale(R, S, A) & group_by(R) & group_by(S) & Total = sum(A).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("sale",
		[]any{"west", "w1", 10}, []any{"west", "w1", 20},
		[]any{"west", "w2", 5}, []any{"east", "e1", 7})
	res, err := sys.Query("by_region(R, T)")
	if err != nil {
		t.Fatal(err)
	}
	// east=7, west=35.
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 7 || res.Rows[1][1].Int() != 35 {
		t.Errorf("by_region = %v", res.Rows)
	}
	res, err = sys.Query("by_store(R, S, T)")
	if err != nil {
		t.Fatal(err)
	}
	// e1=7, w1=30, w2=5 (cascaded grouping splits west).
	if len(res.Rows) != 3 {
		t.Fatalf("by_store = %v", res.Rows)
	}
	totals := map[string]int64{}
	for _, r := range res.Rows {
		totals[r[1].Str()] = r[2].Int()
	}
	if totals["e1"] != 7 || totals["w1"] != 30 || totals["w2"] != 5 {
		t.Errorf("by_store totals = %v", totals)
	}
}

// §5: the class_info example with the paper's exact EDB, checking the
// implied IDB tuples students(cs99)(wilson) and students(cs99)(green).
func TestPaper5ClassInfo(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb class_instructor(ID, I), class_room(ID, R), class_subject(ID, Subj),
    failed_exam(P, Subj), attends(P, ID);

class_info(ID, Instructor, Room, tas(ID), students(ID)) :-
  class_instructor(ID, Instructor) &
  class_room(ID, Room).

tas(ID)(TA) :-
  class_subject(ID, Subject) &
  failed_exam(TA, Subject).

students(ID)(Name) :- attends(Name, ID).
`); err != nil {
		t.Fatal(err)
	}
	// The example EDB from §5, verbatim.
	sys.Assert("class_instructor", []any{"cs99", "smith"})
	sys.Assert("class_room", []any{"cs99", "mjh460a"})
	sys.Assert("class_subject", []any{"cs99", "databases"})
	sys.Assert("failed_exam", []any{"jones", "databases"})
	sys.Assert("attends", []any{"wilson", "cs99"}, []any{"green", "cs99"})

	// "It implies the following IDB tuples: students(cs99)(wilson).
	// students(cs99)(green)."
	res, err := sys.Query("students(cs99)(N)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "green" || res.Rows[1][0].Str() != "wilson" {
		t.Errorf("students(cs99) = %v", res.Rows)
	}
	// "A typical use of the class_info predicate might be:
	// class_info(C,I,R,T,S) & T(TA) & S(Student)"
	res, err = sys.Query("class_info(C,I,R,T,S) & T(TA) & S(Student)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // jones × {wilson, green}
		t.Fatalf("typical use = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[5].Str() != "jones" { // TA column
			t.Errorf("TA = %v", r[5])
		}
	}
}

// §5.2: the HiLog meta-programming example — a universal transitive
// closure parameterized by the edge relation:
//
//	tc(E,X,X).
//	tc(E,X,Z):- tc(E,X,Y) & E(Y,Z).
//
// The fact rule's head variables are bound by the magic guard, so the
// bound call tc(edge, a, X) is safe and evaluates only the relevant part.
func TestPaper52UniversalTC(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb edge(X,Y), other(X,Y);
tc(E,X,X).
tc(E,X,Z) :- tc(E,X,Y) & E(Y,Z).
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("edge", []any{"a", "b"}, []any{"b", "c"})
	sys.Assert("other", []any{"a", "z"})
	res, err := sys.Query("tc(edge, a, X)")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[r[0].Str()] = true
	}
	if len(got) != 3 || !got["a"] || !got["b"] || !got["c"] {
		t.Errorf("tc(edge,a,X) = %v", res.Rows)
	}
	// The same predicate over a different edge relation.
	res, err = sys.Query("tc(other, a, X)")
	if err != nil {
		t.Fatal(err)
	}
	got = map[string]bool{}
	for _, r := range res.Rows {
		got[r[0].Str()] = true
	}
	if len(got) != 2 || !got["a"] || !got["z"] {
		t.Errorf("tc(other,a,X) = %v", res.Rows)
	}
	// Without magic sets the fact rule tc(E,X,X) is unsafe, as the paper's
	// semantics imply: the full extension is infinite.
	sys2 := New(WithBaseline("no-magic"))
	sys2.Load(`
edb edge(X,Y);
tc(E,X,X).
tc(E,X,Z) :- tc(E,X,Y) & E(Y,Z).
`)
	if _, err := sys2.Query("tc(edge, a, X)"); err == nil {
		t.Error("all-free evaluation of the universal tc should be rejected as unsafe")
	}
}

// §2: "in Glue a subgoal can be a NAIL! predicate, or an EDB relation or a
// Glue procedure. The syntax and behavior is the same in all three cases."
func TestPaper2UsageEquivalence(t *testing.T) {
	sys := New()
	if err := sys.Load(`
edb base(X), out1(X), out2(X), out3(X);
derived(X) :- base(X).
proc produced(:X)
  return(:X) := base(X).
end
proc go(:)
  out1(X) := base(X).
  out2(X) := derived(X).
  out3(X) := produced(X).
  return(:) := base(_).
end
`); err != nil {
		t.Fatal(err)
	}
	sys.Assert("base", []any{1}, []any{2})
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"out1", "out2", "out3"} {
		rows, _ := sys.Relation(rel, 1)
		if len(rows) != 2 {
			t.Errorf("%s = %v (all three subgoal classes must behave alike)", rel, rows)
		}
	}
}

// §2: "Predicates do not have duplicates."
func TestPaper2NoDuplicates(t *testing.T) {
	sys := New()
	sys.Load(`
edb src(X, Tag), flat(X);
proc go(:)
  flat(X) := src(X, _).
  return(:) := src(_,_).
end
`)
	sys.Assert("src", []any{1, "a"}, []any{1, "b"}, []any{2, "a"})
	if _, err := sys.Call("main", "go"); err != nil {
		t.Fatal(err)
	}
	rows, _ := sys.Relation("flat", 1)
	if len(rows) != 2 {
		t.Errorf("flat = %v, want 2 distinct", rows)
	}
}

// §9: the compiler eliminates impossible predicate classes at compile
// time; an undeclared predicate in an explicit module is a compile error,
// not a run-time check.
func TestPaper9CompileTimeResolution(t *testing.T) {
	sys := New()
	sys.Load(`
module strict;
edb known(X);
proc go(:)
  known(X) := unknown_pred(X).
  return(:) := known(_).
end
end
`)
	_, err := sys.QueryIn("strict", "known(X)")
	if err == nil || !strings.Contains(err.Error(), "unknown predicate") {
		t.Errorf("expected compile-time unknown-predicate error, got %v", err)
	}
}
