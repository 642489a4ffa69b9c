package nail

import (
	"strings"
	"testing"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/parser"
)

func linkSrc(t *testing.T, src string) *modsys.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lp, err := modsys.Link(prog)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return lp
}

const tcSrc = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

func TestGeneratePlainAllFree(t *testing.T) {
	lp := linkSrc(t, tcSrc)
	sym := lp.Resolve("main", "tc")
	proc, err := Generate(lp, sym, "ff", Options{Magic: true, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.BoundParams) != 0 || len(proc.FreeParams) != 2 {
		t.Errorf("params = %v : %v", proc.BoundParams, proc.FreeParams)
	}
	text := ast.FormatProc(proc)
	// Semi-naive structure (§10's uniondiff): a repeat loop whose rule
	// variant inserts straight into the full relation, a delta that is the
	// range the loop appended, and an empty-delta termination. No new-delta
	// relation, no negated probe of the full relation and no copy of the
	// delta into it.
	for _, want := range []string{"repeat", "until", "'tc|ff'(X,Z) += 'tc|ff|d'(X,Y) & edge(Y,Z).",
		"'tc|ff|d' := uniondiff('tc|ff').", "empty('tc|ff|d'"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated proc missing %q:\n%s", want, text)
		}
	}
	for _, unwanted := range []string{"tc|ff|nd", "!'tc|ff'", "+= 'tc|ff|d'(V0,V1)", "tc|ff|d(A1"} {
		if strings.Contains(text, unwanted) {
			t.Errorf("generated proc has %q:\n%s", unwanted, text)
		}
	}
	if n := strings.Count(text, " += "); n != 2 {
		t.Errorf("generated proc has %d += statements, want the exit rule and one variant:\n%s", n, text)
	}
	// No magic relations for the all-free adornment.
	if strings.Contains(text, "m|tc") {
		t.Errorf("all-free proc should not have magic relations:\n%s", text)
	}
}

func TestGenerateMagicBoundFirst(t *testing.T) {
	lp := linkSrc(t, tcSrc)
	sym := lp.Resolve("main", "tc")
	proc, err := Generate(lp, sym, "bf", Options{Magic: true, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.BoundParams) != 1 || len(proc.FreeParams) != 1 {
		t.Errorf("params = %v : %v", proc.BoundParams, proc.FreeParams)
	}
	text := ast.FormatProc(proc)
	for _, want := range []string{"m|tc|bf", "in(", "tc|bf"} {
		if !strings.Contains(text, want) {
			t.Errorf("magic proc missing %q:\n%s", want, text)
		}
	}
}

// TestMagicDropsTautologies checks that the magic-set rewrite skips a
// magic rule whose head is one of its body atoms: for tc(X,Z) :- tc(X,Y) &
// edge(Y,Z) under bf it would be m|tc|bf(X) :- m|tc|bf(X), which derives
// nothing but made the magic relation recursive, with a loop of its own.
func TestMagicDropsTautologies(t *testing.T) {
	lp := linkSrc(t, tcSrc)
	sym := lp.Resolve("main", "tc")
	proc, err := Generate(lp, sym, "bf", Options{Magic: true, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	if n := strings.Count(text, "repeat"); n != 1 {
		t.Errorf("bf proc has %d loops, want 1 (tc's):\n%s", n, text)
	}
	if strings.Contains(text, "m|tc|bf|d") || strings.Contains(text, "'m|tc|bf'(X) +=") {
		t.Errorf("bf proc derives the magic relation from itself:\n%s", text)
	}
	for _, l := range proc.Locals {
		if l.Name != "m|tc|bf" && l.Name != "tc|bf" {
			t.Errorf("bf proc declares local %s", l.Name)
		}
	}
	// A magic rule that is not a tautology stays: under bf, the
	// right-linear tc passes the bound argument on through edge.
	lp = linkSrc(t, `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- edge(X,Y) & tc(Y,Z).
`)
	proc, err = Generate(lp, lp.Resolve("main", "tc"), "bf", Options{Magic: true, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if text := ast.FormatProc(proc); !strings.Contains(text, "'m|tc|bf'(Y) += 'm|tc|bf|d'(X) & edge(X,Y).") {
		t.Errorf("right-linear bf proc lost its magic rule:\n%s", text)
	}
}

func TestGenerateNaive(t *testing.T) {
	lp := linkSrc(t, tcSrc)
	sym := lp.Resolve("main", "tc")
	proc, err := Generate(lp, sym, "ff", Options{SemiNaive: false})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	if !strings.Contains(text, "unchanged(") {
		t.Errorf("naive proc should terminate via unchanged:\n%s", text)
	}
	if strings.Contains(text, "|d(") {
		t.Errorf("naive proc should not use delta relations:\n%s", text)
	}
}

func TestGenerateNonRecursive(t *testing.T) {
	lp := linkSrc(t, `
edb parent(X,Y);
grandparent(X,Z) :- parent(X,Y) & parent(Y,Z).
`)
	sym := lp.Resolve("main", "grandparent")
	proc, err := Generate(lp, sym, "ff", Options{Magic: true, SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	if strings.Contains(text, "repeat") {
		t.Errorf("non-recursive predicate should not generate a loop:\n%s", text)
	}
}

func TestGenerateStratifiedLayers(t *testing.T) {
	lp := linkSrc(t, `
edb edge(X,Y), node(X);
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y) & edge(Y,Z).
unreachable(X,Y) :- node(X) & node(Y) & !reach(X,Y).
`)
	sym := lp.Resolve("main", "unreachable")
	proc, err := Generate(lp, sym, "ff", Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	if !strings.Contains(text, "!'reach|ff'(") {
		t.Errorf("negation should reference the complete lower stratum:\n%s", text)
	}
}

func TestGenerateRejectsUnstratified(t *testing.T) {
	lp := linkSrc(t, `
edb e(X);
p(X) :- e(X) & !q(X).
q(X) :- e(X) & !p(X).
`)
	sym := lp.Resolve("main", "p")
	_, err := Generate(lp, sym, "f", Options{SemiNaive: true})
	if err == nil || !strings.Contains(err.Error(), "stratified") {
		t.Errorf("expected stratification error, got %v", err)
	}
}

func TestGenerateRejectsAggThroughRecursion(t *testing.T) {
	lp := linkSrc(t, `
edb e(X,Y);
p(X, C) :- e(X, Y) & C = count(Y).
p(X, C) :- p(Y, D) & e(Y, X) & C = sum(D).
`)
	sym := lp.Resolve("main", "p")
	_, err := Generate(lp, sym, "ff", Options{SemiNaive: true})
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("expected aggregation-through-recursion error, got %v", err)
	}
}

func TestGenerateFamilyFlattening(t *testing.T) {
	lp := linkSrc(t, `
edb attends(N, ID);
students(ID)(N) :- attends(N, ID).
`)
	sym := lp.Resolve("main", "students")
	proc, err := Generate(lp, sym, "ff", Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.FreeParams) != 2 {
		t.Errorf("family proc should have 2 free params, got %v", proc.FreeParams)
	}
	text := ast.FormatProc(proc)
	if !strings.Contains(text, "students|ff") {
		t.Errorf("family should flatten to a binary local:\n%s", text)
	}
}

func TestGenerateMutualRecursion(t *testing.T) {
	lp := linkSrc(t, `
edb e(X,Y);
even(X,Y) :- e(X,Y).
even(X,Z) :- odd(X,Y) & e(Y,Z).
odd(X,Z) :- even(X,Y) & e(Y,Z).
`)
	sym := lp.Resolve("main", "even")
	proc, err := Generate(lp, sym, "ff", Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	// Hmm: even/odd form one SCC? even depends on odd and e; odd depends
	// on even: yes, one SCC with both.
	for _, want := range []string{"even|ff|d", "odd|ff|d"} {
		if !strings.Contains(text, want) {
			t.Errorf("mutual recursion missing %q:\n%s", want, text)
		}
	}
}

func TestGenerateFactRules(t *testing.T) {
	lp := linkSrc(t, `
base(1).
base(2).
up(X) :- base(X).
`)
	sym := lp.Resolve("main", "up")
	proc, err := Generate(lp, sym, "f", Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	text := ast.FormatProc(proc)
	if !strings.Contains(text, "'base|f'(1)") {
		t.Errorf("fact rules should become assignments:\n%s", text)
	}
}

func TestMagicNegationStaysStratified(t *testing.T) {
	// Regression (found by random-program differential testing): magic
	// rewriting of this stratified program used to create a negative
	// cycle — the magic predicate of d0's adorned variant depended on the
	// prefix of d1's negating rule, which depended back on d0 through the
	// negation. Negated predicates must evaluate through a disconnected
	// plain sub-program.
	lp := linkSrc(t, `
edb e0(X,Y), e1(X,Y);
d0(Y,Y) :- e0(X,Y) & e1(Z,W) & e0(Y,W).
d0(Y,X) :- e0(Y,X) & e1(X,W) & d0(W,X).
d1(Y,Z) :- e1(Z,Y) & d0(Z,X) & d0(Y,Z).
d1(X,W) :- e0(W,Z) & d1(X,W) & d0(Z,Z) & !d0(W,Z).
`)
	sym := lp.Resolve("main", "d1")
	for _, semiNaive := range []bool{true, false} {
		proc, err := Generate(lp, sym, "bf", Options{Magic: true, SemiNaive: semiNaive})
		if err != nil {
			t.Fatalf("semiNaive=%v: %v", semiNaive, err)
		}
		text := ast.FormatProc(proc)
		if !strings.Contains(text, "d0|plain") {
			t.Errorf("negation should route through the plain sub-program:\n%s", text)
		}
	}
}

func TestGenerateAdornMismatch(t *testing.T) {
	lp := linkSrc(t, tcSrc)
	sym := lp.Resolve("main", "tc")
	if _, err := Generate(lp, sym, "b", Options{}); err == nil {
		t.Error("adornment length mismatch should fail")
	}
}
