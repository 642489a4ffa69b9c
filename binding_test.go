package gluenail

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"gluenail/internal/plan"
)

// TestPlanBindingParity pins the binding rule the statement compiler and
// the physical planner share (DESIGN §5.27). Planning a compiled statement
// in its compiled order, with no statistics, must give every pipe op the
// bound mask and bind list the compiler gave it, segment by segment: the
// planner starts each segment from the registers the segments before it
// bound. Every statement and until-condition of the golden programs, the
// examples and a spread of random NAIL! programs is checked.
func TestPlanBindingParity(t *testing.T) {
	ops := 0
	check := func(t *testing.T, sys *System) {
		t.Helper()
		err := sys.do(needProgram, func() error {
			for id, p := range sys.compiler.Program().Procs {
				ops += bindingParity(t, id, p.Body)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob("testdata/programs/*.glue")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden programs: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			var out bytes.Buffer
			sys := New(WithOutput(&out))
			defer sys.Close()
			if err := goldenRun(sys, file, &out); err != nil {
				t.Fatal(err)
			}
			check(t, sys)
		})
	}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, file := range examples {
		t.Run(filepath.Base(filepath.Dir(file)), func(t *testing.T) {
			sys := New(WithOutput(&bytes.Buffer{}))
			defer sys.Close()
			none := func([][]Value) ([][]Value, error) { return nil, nil }
			// The foreign procedures examples/cad registers.
			for _, r := range []struct {
				name        string
				bound, free int
			}{
				{"event", 0, 2}, {"highlight", 1, 0}, {"dehighlight", 1, 0},
			} {
				if err := sys.Register(r.name, r.bound, r.free, true, none); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range exampleSources(t, file) {
				if err := sys.Load(src); err != nil {
					t.Fatal(err)
				}
			}
			check(t, sys)
		})
	}
	t.Run("randprog", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nDerived := 1 + rng.Intn(3)
			sys := New()
			if err := sys.Load(genProgram(rng, nDerived)); err != nil {
				t.Fatal(err)
			}
			target := fmt.Sprintf("d%d", nDerived-1)
			for _, q := range []string{"%s(X, Y)", "%s(1, Y)", "%s(X, 1)", "%s(1, 2)"} {
				if _, err := sys.Query(fmt.Sprintf(q, target)); err != nil {
					t.Fatal(err)
				}
			}
			check(t, sys)
			sys.Close()
		}
	})
	if ops < 500 {
		t.Errorf("checked %d pipe ops; the corpus should give hundreds", ops)
	}
}

// bindingParity checks every statement and until-condition of instrs and
// returns the number of pipe ops it compared.
func bindingParity(t *testing.T, id string, instrs []plan.Instr) int {
	t.Helper()
	n := 0
	steps := func(label string, steps []plan.Step) {
		pl := &plan.Planner{}
		for k, ps := range pl.PlanSteps(steps, nil) {
			if len(ps.Ops) != len(steps[k].Pipe) {
				t.Fatalf("%s %q segment %d: planned %d ops, compiled %d", id, label, k, len(ps.Ops), len(steps[k].Pipe))
			}
			for i, po := range ps.Ops {
				op := steps[k].Pipe[i]
				if po.LogIdx != i {
					t.Fatalf("%s %q segment %d: op %d planned at %d without reordering", id, label, k, po.LogIdx, i)
				}
				if got, want := plan.OpMask(po.Op), plan.OpMask(op); got != want {
					t.Errorf("%s %q segment %d op %d: planned mask %b, compiled %b", id, label, k, i, got, want)
				}
				if got, want := pipeBind(po.Op), pipeBind(op); !slices.Equal(got, want) {
					t.Errorf("%s %q segment %d op %d: planned bind %v, compiled %v", id, label, k, i, got, want)
				}
				n++
			}
		}
	}
	for _, in := range instrs {
		switch in := in.(type) {
		case *plan.ExecStmt:
			steps(in.S.Label, in.S.Steps)
		case *plan.Loop:
			n += bindingParity(t, id, in.Body)
			for _, c := range in.Until {
				steps("until", c.Steps)
			}
		}
	}
	return n
}

// pipeBind returns the registers a pipe op binds.
func pipeBind(op plan.PipeOp) []int {
	switch op := op.(type) {
	case *plan.Match:
		return op.Bind
	case *plan.DynMatch:
		return op.Bind
	case *plan.MatchBind:
		return op.Bind
	}
	return nil
}

// exampleSources returns the Glue sources an example program embeds: its
// raw-string constants.
func exampleSources(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for _, v := range spec.Values {
			if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING && lit.Value[0] == '`' {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				srcs = append(srcs, s)
			}
		}
		return false
	})
	if len(srcs) == 0 {
		t.Fatalf("%s embeds no program", file)
	}
	return srcs
}
