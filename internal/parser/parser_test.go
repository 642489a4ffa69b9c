package parser

import (
	"errors"
	"strings"
	"testing"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

func parseOne(t *testing.T, src string) *ast.Module {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	if len(prog.Modules) != 1 {
		t.Fatalf("got %d modules, want 1", len(prog.Modules))
	}
	return prog.Modules[0]
}

func TestImplicitModule(t *testing.T) {
	m := parseOne(t, `
edb e(X,Y);
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y) & e(Y,Z).
`)
	if m.Name != "main" {
		t.Errorf("implicit module name = %q", m.Name)
	}
	if len(m.EDB) != 1 || m.EDB[0].Name != "e" || m.EDB[0].Arity() != 2 {
		t.Errorf("EDB = %+v", m.EDB)
	}
	if len(m.Rules) != 2 {
		t.Fatalf("rules = %d", len(m.Rules))
	}
	if m.Rules[0].Head.PredName() != "tc" {
		t.Errorf("rule head = %q", m.Rules[0].Head.PredName())
	}
	if len(m.Rules[1].Body) != 2 {
		t.Errorf("rule 2 body has %d goals", len(m.Rules[1].Body))
	}
}

func TestExplicitModuleHeader(t *testing.T) {
	m := parseOne(t, `
module example;
export select(:Key);
from windows import event(:Type, Data);
from graphics import highlight(Key:), dehighlight(Key:);
edb element(Key, Origin, P1, P2, DS), tolerance(T);
end
`)
	if m.Name != "example" {
		t.Errorf("name = %q", m.Name)
	}
	if len(m.Exports) != 1 || m.Exports[0].Bound != 0 || m.Exports[0].Free != 1 {
		t.Errorf("exports = %+v", m.Exports)
	}
	if len(m.Imports) != 2 {
		t.Fatalf("imports = %d", len(m.Imports))
	}
	if m.Imports[0].From != "windows" || m.Imports[0].Sigs[0].Name != "event" {
		t.Errorf("import 0 = %+v", m.Imports[0])
	}
	if m.Imports[0].Sigs[0].Bound != 0 || m.Imports[0].Sigs[0].Free != 2 {
		t.Errorf("event sig = %+v", m.Imports[0].Sigs[0])
	}
	if m.Imports[1].Sigs[0].Bound != 1 || m.Imports[1].Sigs[0].Free != 0 {
		t.Errorf("highlight sig = %+v", m.Imports[1].Sigs[0])
	}
	if len(m.EDB) != 2 || m.EDB[0].Arity() != 5 || m.EDB[1].Arity() != 1 {
		t.Errorf("edb = %+v", m.EDB)
	}
}

func TestPaperTcProcedure(t *testing.T) {
	// The tc_e procedure from §4, lightly normalized.
	m := parseOne(t, `
module tcmod;
edb e(X,Y);
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & e(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & e(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
end
`)
	if len(m.Procs) != 1 {
		t.Fatalf("procs = %d", len(m.Procs))
	}
	p := m.Procs[0]
	if p.Name != "tc_e" || len(p.BoundParams) != 1 || len(p.FreeParams) != 1 {
		t.Errorf("proc sig: %s (%v:%v)", p.Name, p.BoundParams, p.FreeParams)
	}
	if len(p.Locals) != 1 || p.Locals[0].Name != "connected" {
		t.Errorf("locals = %+v", p.Locals)
	}
	if len(p.Body) != 3 {
		t.Fatalf("body stmts = %d", len(p.Body))
	}
	rep, ok := p.Body[1].(*ast.Repeat)
	if !ok {
		t.Fatalf("stmt 1 is %T, want Repeat", p.Body[1])
	}
	if len(rep.Body) != 1 || len(rep.Until) != 1 {
		t.Errorf("repeat: body=%d until=%d", len(rep.Body), len(rep.Until))
	}
	if _, ok := rep.Until[0][0].(*ast.UnchangedGoal); !ok {
		t.Errorf("until goal is %T", rep.Until[0][0])
	}
	ret, ok := p.Body[2].(*ast.Assign)
	if !ok || !ret.IsReturn || ret.HeadBound != 1 {
		t.Errorf("return stmt: %+v", p.Body[2])
	}
}

func TestAssignmentOperators(t *testing.T) {
	m := parseOne(t, `
edb row(X), matrix(X,Y,V);
proc fill(:)
  matrix(X,X, 1.0):= row(X).
  matrix(X,Y, 0.0)+= row(X) & row(Y) & X != Y.
  matrix(X,Y,V) +=[X,Y] row(X) & row(Y) & V = X*Y.
  matrix(X,Y,V) -= matrix(X,Y,V) & V = 0.0.
  return(:):= row(1).
end
`)
	p := m.Procs[0]
	ops := []ast.AssignOp{ast.OpAssign, ast.OpInsert, ast.OpModify, ast.OpDelete}
	for i, want := range ops {
		a := p.Body[i].(*ast.Assign)
		if a.Op != want {
			t.Errorf("stmt %d op = %v, want %v", i, a.Op, want)
		}
	}
	mod := p.Body[2].(*ast.Assign)
	if len(mod.Key) != 2 || mod.Key[0] != "X" || mod.Key[1] != "Y" {
		t.Errorf("modify key = %v", mod.Key)
	}
	// matrix(X,X, 1.0) head: third arg is the float constant 1.0.
	a0 := p.Body[0].(*ast.Assign)
	c, ok := a0.Head.Args[2].(*ast.Const)
	if !ok || c.Val.Kind() != term.Float || c.Val.Float() != 1.0 {
		t.Errorf("head const = %#v", a0.Head.Args[2])
	}
}

func TestAggregationGoals(t *testing.T) {
	m := parseOne(t, `
edb daily_temp(Name, T);
coldest_city(Name) :- daily_temp(Name,T) & MinT = min(T) & T = MinT.
course_average(C, Avg) :- course_student_grade(C,S,G) & group_by(C) & Avg = mean(G).
`)
	r := m.Rules[0]
	agg, ok := r.Body[1].(*ast.AggGoal)
	if !ok || agg.Op != "min" || agg.Var != "MinT" {
		t.Fatalf("goal 1 = %#v", r.Body[1])
	}
	if v, ok := agg.Arg.(*ast.VarTerm); !ok || v.Name != "T" {
		t.Errorf("agg arg = %#v", agg.Arg)
	}
	if cmp, ok := r.Body[2].(*ast.CmpGoal); !ok || cmp.Op != ast.CmpEq {
		t.Errorf("goal 2 = %#v", r.Body[2])
	}
	r2 := m.Rules[1]
	gb, ok := r2.Body[1].(*ast.GroupByGoal)
	if !ok || len(gb.Vars) != 1 || gb.Vars[0] != "C" {
		t.Fatalf("group_by = %#v", r2.Body[1])
	}
	if agg2, ok := r2.Body[2].(*ast.AggGoal); !ok || agg2.Op != "mean" {
		t.Errorf("mean goal = %#v", r2.Body[2])
	}
}

func TestAggFlippedSides(t *testing.T) {
	// min(T) = MinT should also parse as an aggregation goal.
	goals, err := ParseGoals("daily_temp(N,T) & min(T) = MinT")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := goals[1].(*ast.AggGoal); !ok {
		t.Errorf("flipped agg = %#v", goals[1])
	}
}

func TestHiLogTerms(t *testing.T) {
	m := parseOne(t, `
edb dept_employees(D, S);
q(E) :- dept_employees(toy, E_set) & E_set(E).
students(ID)(N) :- attends(N, ID).
`)
	// E_set(E): predicate position is a variable.
	g := m.Rules[0].Body[1].(*ast.AtomGoal)
	if v, ok := g.Atom.Pred.(*ast.VarTerm); !ok || v.Name != "E_set" {
		t.Errorf("pred var = %#v", g.Atom.Pred)
	}
	// students(ID)(N): head predicate is a compound term.
	h := m.Rules[1].Head
	cp, ok := h.Pred.(*ast.CompTerm)
	if !ok {
		t.Fatalf("head pred = %#v", h.Pred)
	}
	if fn, ok := cp.Fn.(*ast.Const); !ok || fn.Val.Str() != "students" {
		t.Errorf("head pred functor = %#v", cp.Fn)
	}
	if len(h.Args) != 1 {
		t.Errorf("head args = %d", len(h.Args))
	}
}

func TestCompoundArgsInSubgoals(t *testing.T) {
	// r(X,Y) += s(X,W) & t(f(W,X),Y). from §3.1.
	goals, err := ParseGoals("s(X,W) & t(f(W,X),Y)")
	if err != nil {
		t.Fatal(err)
	}
	tg := goals[1].(*ast.AtomGoal)
	comp, ok := tg.Atom.Args[0].(*ast.CompTerm)
	if !ok {
		t.Fatalf("arg 0 = %#v", tg.Atom.Args[0])
	}
	if fn := comp.Fn.(*ast.Const); fn.Val.Str() != "f" {
		t.Errorf("functor = %v", fn.Val)
	}
}

func TestArithmeticComparison(t *testing.T) {
	// From Figure 1: (X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin) < T.
	goals, err := ParseGoals("(X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin) < T")
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := goals[0].(*ast.CmpGoal)
	if !ok || cmp.Op != ast.CmpLt {
		t.Fatalf("goal = %#v", goals[0])
	}
	add, ok := cmp.L.(*ast.BinExpr)
	if !ok || add.Op != ast.OpAdd {
		t.Fatalf("lhs = %#v", cmp.L)
	}
	if mul, ok := add.L.(*ast.BinExpr); !ok || mul.Op != ast.OpMul {
		t.Errorf("lhs.l = %#v", add.L)
	}
}

func TestPrecedence(t *testing.T) {
	goals, err := ParseGoals("X = 1 + 2 * 3 - 4 mod 2")
	if err != nil {
		t.Fatal(err)
	}
	cmp := goals[0].(*ast.CmpGoal)
	// ((1 + (2*3)) - (4 mod 2))
	sub, ok := cmp.R.(*ast.BinExpr)
	if !ok || sub.Op != ast.OpSub {
		t.Fatalf("top = %#v", cmp.R)
	}
	add := sub.L.(*ast.BinExpr)
	if add.Op != ast.OpAdd {
		t.Errorf("add = %v", add.Op)
	}
	if mul := add.R.(*ast.BinExpr); mul.Op != ast.OpMul {
		t.Errorf("mul = %v", mul.Op)
	}
	if m := sub.R.(*ast.BinExpr); m.Op != ast.OpMod {
		t.Errorf("mod = %v", m.Op)
	}
}

func TestNegativeLiterals(t *testing.T) {
	goals, err := ParseGoals("p(X) & X > -5")
	if err != nil {
		t.Fatal(err)
	}
	cmp := goals[1].(*ast.CmpGoal)
	te := cmp.R.(*ast.TermExpr)
	c := te.T.(*ast.Const)
	if c.Val.Int() != -5 {
		t.Errorf("folded literal = %v", c.Val)
	}
}

func TestStringBuiltins(t *testing.T) {
	goals, err := ParseGoals("R = strcat(A, B) & L = strlen(R) & S = substr(R, 1, 3)")
	if err != nil {
		t.Fatal(err)
	}
	for i, fn := range []string{"strcat", "strlen", "substr"} {
		cmp, ok := goals[i].(*ast.CmpGoal)
		if !ok {
			t.Fatalf("goal %d = %#v", i, goals[i])
		}
		call, ok := cmp.R.(*ast.CallExpr)
		if !ok || call.Fn != fn {
			t.Errorf("goal %d rhs = %#v", i, cmp.R)
		}
	}
	if _, err := ParseGoals("R = strcat(A)"); err == nil {
		t.Error("strcat/1 should be an arity error")
	}
}

func TestUpdateSubgoals(t *testing.T) {
	// --possible(It, D) from Figure 1, plus ++.
	goals, err := ParseGoals("try(K) & --possible(It, D) & ++log(K)")
	if err != nil {
		t.Fatal(err)
	}
	del := goals[1].(*ast.AtomGoal)
	if del.Update != ast.UpdateDelete {
		t.Errorf("update kind = %v", del.Update)
	}
	ins := goals[2].(*ast.AtomGoal)
	if ins.Update != ast.UpdateInsert {
		t.Errorf("update kind = %v", ins.Update)
	}
}

func TestNegatedGoal(t *testing.T) {
	goals, err := ParseGoals("in(S,T) & S(X) & !T(X)")
	if err != nil {
		t.Fatal(err)
	}
	neg := goals[2].(*ast.AtomGoal)
	if !neg.Negated {
		t.Error("expected negated goal")
	}
	if _, ok := neg.Atom.Pred.(*ast.VarTerm); !ok {
		t.Errorf("negated HiLog pred = %#v", neg.Atom.Pred)
	}
}

func TestRepeatUntilDisjunction(t *testing.T) {
	m := parseOne(t, `
proc p(:)
rels confirmed(K), possible(K);
  repeat
    confirmed(K) := possible(K).
  until {confirmed(K) | empty(possible(K)) };
  return(:):= confirmed(1).
end
`)
	rep := m.Procs[0].Body[0].(*ast.Repeat)
	if len(rep.Until) != 2 {
		t.Fatalf("until alternatives = %d", len(rep.Until))
	}
	if _, ok := rep.Until[1][0].(*ast.EmptyGoal); !ok {
		t.Errorf("alt 1 = %#v", rep.Until[1][0])
	}
}

func TestMultipleModules(t *testing.T) {
	prog, err := Parse(`
module a;
edb p(X);
end
module b;
from a import p(X);
q(X) :- p(X).
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Modules) != 2 || prog.Modules[0].Name != "a" || prog.Modules[1].Name != "b" {
		t.Errorf("modules = %+v", prog.Modules)
	}
}

func TestParseGoalsTrailingDot(t *testing.T) {
	for _, src := range []string{"p(X)", "p(X)."} {
		goals, err := ParseGoals(src)
		if err != nil || len(goals) != 1 {
			t.Errorf("ParseGoals(%q) = %v, %v", src, goals, err)
		}
	}
}

func TestBareAtomGoal(t *testing.T) {
	goals, err := ParseGoals("done")
	if err != nil {
		t.Fatal(err)
	}
	g := goals[0].(*ast.AtomGoal)
	if g.Atom.PredName() != "done" || g.Atom.Arity() != 0 {
		t.Errorf("bare atom = %#v", g.Atom)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"module ; end",              // missing name
		"module m",                  // missing semi
		"module m; proc p(X:Y) end", // unterminated module
		"edb p(X:Y);",               // bound args in EDB
		"proc p(:) rels l(X:Y); return(:):= t. end",  // bound args in local
		"proc p(:) q(X) ?= r(X). return(:):= t. end", // bad operator
		"p(X) :- q(X)",                  // missing dot
		"p(X) :- 1+2.",                  // arithmetic as goal
		"proc p(:) q(X) +=[] r(X). end", // empty modify key
		"p(f(X+1)).",                    // arithmetic inside term args
		"p(X) :- X(Y) & X.",             // bare predicate variable
		"return(X:Y:Z) := p(X).",        // second colon — parses head as rule? ensure error
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	for _, src := range []string{"p(X) q(Y)", "p(X) & ", "& p(X)", "3 < "} {
		if _, err := ParseGoals(src); err == nil {
			t.Errorf("ParseGoals(%q) should fail", src)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("p(X) :-\n  q(X) ??")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error should mention line 2: %v", err)
	}
}

// TestErrorStrings pins the exact error text, position included, of inputs
// where lexing and parsing interact: a lexical error anywhere in the input
// outranks an earlier syntax error, and end of input sits just past the
// last token (1:1 when there is none).
func TestErrorStrings(t *testing.T) {
	for _, c := range []struct {
		goals bool // ParseGoals instead of Parse
		src   string
		want  string
	}{
		{false, "p(X) :- q(X) r(X).\nz(1). @", "2:7: unexpected character '@'"},
		{false, "p(X) :- . /* never closed", "1:11: unterminated block comment"},
		{false, "p(X :- q(X).", "1:5: expected ')', found ':-'"},
		{false, "p(X) :- q(X)", "1:13: expected '.', found end of input"},
		{false, "module m;\nexport p(X:Y);\nedb e(A,B);\n", "3:12: unexpected end of input in module m"},
		{false, "module m;\nproc p(X:Y)\n  return(X:Y) := e(X,Y).\n", `3:25: unexpected end of input, expected "end"`},
		{false, "proc p(:)\n  return(:) := q(1).\n", `2:21: unexpected end of input, expected "end"`},
		{false, "h('unterminated :- q.", "1:3: unterminated string"},
		{false, "p(X) :- q(\"a\nb).", "1:11: unterminated string"},
		{false, "p(1). /* open", "1:7: unterminated block comment"},
		{false, "p(X) :- q(X) & 'it\\qs'.", `1:21: bad escape \q`},
		{false, "p(X) :- q(99999999999999999999).", "1:11: bad integer literal 99999999999999999999"},
		{true, "", "1:1: expected a term, found end of input"},
		{true, "   \n  ", "1:1: expected a term, found end of input"},
		{true, "p(X) &", "1:7: expected a term, found end of input"},
		{true, "p(X) q(Y)", `1:6: unexpected "q" after query`},
		{true, "p('x", "1:3: unterminated string"},
		{true, "p(X) /* c", "1:6: unterminated block comment"},
		{true, "p(X) & q(Y) ) $", "1:15: unexpected character '$'"},
	} {
		var err error
		if c.goals {
			_, err = ParseGoals(c.src)
		} else {
			_, err = Parse(c.src)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("goals=%v %q: error %v, want %s", c.goals, c.src, err, c.want)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	// Formatting a parsed module and reparsing it reproduces the shape.
	src := `
module m;
export tc(B1:F1);
edb e(A1,A2);
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y) & e(Y,Z).
proc tc_e(X:Y)
rels connected(X,Y);
  connected(X,Y) := in(X) & e(X,Y).
  repeat
    connected(X,Y) += connected(X,Z) & e(Z,Y).
  until unchanged(connected(_,_));
  return(X:Y) := connected(X,Y).
end
end
`
	m1 := parseOne(t, src)
	text := ast.FormatModule(m1)
	m2 := parseOne(t, text)
	if ast.FormatModule(m2) != text {
		t.Errorf("format not stable:\nfirst:\n%s\nsecond:\n%s", text, ast.FormatModule(m2))
	}
}

// TestBareExprBuiltinMeansEmptyCall: a bare subgoal, negation, update or
// head named like an expression builtin formats as the empty application
// name(), which the parser refuses with an arity error — so the bare form
// is refused with the same message, and a formatted module always
// reparses.
func TestBareExprBuiltinMeansEmptyCall(t *testing.T) {
	for _, c := range []struct{ bare, call, want string }{
		{"x :- a & strlen.", "x :- a & strlen().", "strlen expects 1 arguments, got 0"},
		{"x:-c11('','')&a00&substr.", "x:-c11('','')&a00&substr().", "substr expects 3 arguments, got 0"},
		{"x :- !abs.", "x :- !abs().", "abs expects 1 arguments, got 0"},
		{"x :- ++strcat.", "x :- ++strcat().", "strcat expects 2 arguments, got 0"},
		{"strcat :- a.", "strcat() :- a.", "strcat expects 2 arguments, got 0"},
	} {
		for _, src := range []string{c.bare, c.call} {
			_, err := Parse(src)
			var pe *Error
			if !errors.As(err, &pe) || pe.Msg != c.want {
				t.Errorf("Parse(%q) = %v, want %q", src, err, c.want)
			}
		}
	}
}
