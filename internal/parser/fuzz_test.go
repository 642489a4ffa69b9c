package parser

import (
	"testing"

	"gluenail/internal/ast"
	"gluenail/internal/lexer"
)

// FuzzParse checks the parser never panics and that anything it accepts can
// be formatted and reparsed (print/parse stability). The seed corpus covers
// every syntactic construct; `go test` runs the seeds, `go test -fuzz` digs
// deeper.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"p(X) :- q(X).",
		"edb e(X,Y);\ntc(X,Y) :- e(X,Y).\ntc(X,Z) :- tc(X,Y) & e(Y,Z).",
		"module m;\nexport p(X:Y);\nedb e(A,B);\nproc p(X:Y)\n  return(X:Y) := e(X,Y).\nend\nend",
		"proc p(:)\nrels t(A);\n  repeat\n    t(X) += s(X).\n  until unchanged(t(_));\n  return(:) := t(_).\nend",
		"a(X) :- b(X) & !c(X) & X > 1+2*3 & Y = min(X) & group_by(X).",
		"s(I)(N) :- a(N, I).",
		"q(E) :- d(toy, S) & S(E).",
		"p(X) := q(X) & --r(X) & ++w(X).",
		"h('it\\'s', \"dq\", 1.5e2, -3) :- t(_).",
		"x(X) :- y(X) & Z = strcat('a', 'b') & L = strlen(Z) & S = substr(Z, 1, 1).",
		"proc f(:)\n  return(:) := g(1).\nend",
		"until(X) :- weird(X).",
		"p(f(g(h(1)))(2)) :- q(_).",
		"x:-c11('','')&a00&substr.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		checkLexErrorWins(t, src, err)
		if err != nil || prog == nil {
			return
		}
		for _, m := range prog.Modules {
			text := ast.FormatModule(m)
			// Formatted output of an accepted module must reparse, except
			// when a name needed quoting (generated-code names); those
			// print quoted and still reparse, so any failure is a bug.
			if _, err := Parse(text); err != nil {
				t.Fatalf("reparse of formatted module failed: %v\noriginal: %q\nformatted:\n%s",
					err, src, text)
			}
		}
	})
}

// FuzzParseGoals checks the query-goal parser.
func FuzzParseGoals(f *testing.F) {
	for _, s := range []string{
		"p(X)", "p(X) & q(X, Y).", "X = 1 + 2", "!p(X) & X != Y",
		"min(T) = M & daily(N, T)", "S(X) & T(X)", "empty(p(_))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := ParseGoals(src) // must not panic
		checkLexErrorWins(t, src, err)
	})
}

// checkLexErrorWins asserts that when the input does not tokenize, the
// parse fails with exactly the lexer's error, wherever a syntax error
// stopped the parse.
func checkLexErrorWins(t *testing.T, src string, parseErr error) {
	_, lexErr := lexer.Tokenize(src)
	if lexErr == nil {
		return
	}
	if parseErr == nil || parseErr.Error() != lexErr.Error() {
		t.Fatalf("%q: parse error %v, want the lexical error %v", src, parseErr, lexErr)
	}
}
