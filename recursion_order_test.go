package gluenail

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Stored order of recursive predicates. A semi-naive loop appends each
// new tuple of a recursive predicate to its full relation in the order
// the loop derives it, and a ":=" of the predicate into a stored relation
// keeps that order. The golden file pins it for each recursion shape —
// linear, non-linear, a mutually recursive pair, and their bound
// (magic-set) forms, also called on several inputs at once — on each
// configuration, so a change to how the loop is emitted or run must
// derive the same tuples in the same order.
// Regenerate with `go test -run TestRecursionStoredOrder -update`.

const recursionOrderProg = `
edb edge(X, Y), start(X);

tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y) & edge(Y, Z).
tcn(X, Y) :- edge(X, Y).
tcn(X, Z) :- tcn(X, Y) & tcn(Y, Z).
odd(X, Y) :- edge(X, Y).
odd(X, Z) :- even(X, Y) & edge(Y, Z).
even(X, Z) :- odd(X, Y) & edge(Y, Z).
`

// recursionOrderCases fill one stored relation each, from the goals.
var recursionOrderCases = []struct {
	name, goals string
	vars        []string
}{
	{"linear", "tc(X, Y)", []string{"X", "Y"}},
	{"nonlinear", "tcn(X, Y)", []string{"X", "Y"}},
	{"pair", "even(X, Y)", []string{"X", "Y"}},
	{"pair_other", "odd(X, Y)", []string{"X", "Y"}},
	{"linear_bf", "tc(1, Y)", []string{"Y"}},
	{"linear_fb", "tc(X, 4)", []string{"X"}},
	{"nonlinear_bf", "tcn(1, Y)", []string{"Y"}},
	{"pair_bf", "even(2, Y)", []string{"Y"}},
	{"linear_bf_inputs", "start(S) & tc(S, Y)", []string{"S", "Y"}},
}

// recursionOrderEdges is a graph with cycles, a self-loop, fan-out and
// fan-in, so the loops run several iterations and every variant derives
// something.
var recursionOrderEdges = [][]any{
	{1, 2}, {2, 3}, {3, 4}, {4, 1}, {2, 5}, {5, 6}, {6, 3}, {6, 7},
	{7, 8}, {8, 6}, {9, 9}, {9, 1}, {4, 10}, {10, 11}, {11, 12}, {12, 10},
}

// TestRecursionStoredOrder pins the order in which each recursion shape
// stores its answers on mem, disk, spill and materialized.
func TestRecursionStoredOrder(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(recursionOrderProg)
	for _, c := range recursionOrderCases {
		args := strings.Join(c.vars, ", ")
		fmt.Fprintf(&sb, "edb r_%s(%s);\nproc f_%s(:)\n  r_%s(%s) := %s.\nend\n",
			c.name, args, c.name, c.name, args, c.goals)
	}
	var got strings.Builder
	for _, cfg := range moveConfigs {
		sys := New(cfg.opts(t)...)
		if err := sys.Load(sb.String()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", recursionOrderEdges...); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("start", []any{9}, []any{6}, []any{1}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n", cfg.name)
		for _, c := range recursionOrderCases {
			if _, err := sys.Call("main", "f_"+c.name); err != nil {
				t.Fatalf("%s %s: %v", cfg.name, c.name, err)
			}
			r, ok := sys.edb.Get(Str("r_"+c.name), len(c.vars))
			if !ok {
				t.Fatalf("%s: no relation r_%s", cfg.name, c.name)
			}
			fmt.Fprintf(&got, "%s: %v\n", c.name, r.All())
		}
		sys.Close()
	}
	const golden = "testdata/recursion_order.out"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("stored order changed:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
