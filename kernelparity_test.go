package gluenail

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestHiLogDispatchKernelParity is the regression test for the cached head
// dispatch key: a dispatch-heavy HiLog program — computed head names
// creating one relation per department, predicate-variable reads
// dispatching back into them, and a set-valued catalog — must resolve the
// relations and rows that a plain Go reading of the facts predicts, under
// both the pipelined executor and the materialized baseline.
func TestHiLogDispatchKernelParity(t *testing.T) {
	const program = `
edb emp(Dept, Name), dept_set(Dept, S);
headcount(D, N) :- dept_set(D, S) & S(E) & group_by(D, S) & N = count(E).
proc build(:)
  team(D)(N) := emp(D, N).
  dept_set(D, team(D)) := emp(D, _).
  return(:) := emp(_,_).
end
`
	var emps [][]any
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		emps = append(emps, []any{
			fmt.Sprintf("dept%02d", rng.Intn(17)),
			fmt.Sprintf("emp%03d", i),
		})
	}
	// The answers, computed from emps alone, as sorted row renderings.
	render := func(vals ...Value) string { return rowsKey(&Result{Rows: [][]Value{vals}}) }
	want := make([][]string, 3)
	heads := map[string]int{}
	for _, e := range emps {
		d, n := e[0].(string), e[1].(string)
		team := Compound("team", Str(d))
		if d == "dept03" {
			want[0] = append(want[0], render(team, Str(n)))
		}
		want[1] = append(want[1], render(Str(d), team, Str(n)))
		heads[d]++
	}
	for d, n := range heads {
		want[2] = append(want[2], render(Str(d), Int(int64(n))))
	}
	queries := []string{
		"dept_set(dept03, S) & S(N)",
		"dept_set(D, S) & S(N)",
		"headcount(D, N)",
	}
	for name, opts := range map[string][]Option{
		"pipelined":    nil,
		"materialized": {WithMaterializedExecution()},
	} {
		sys := New(opts...)
		if err := sys.Load(program); err != nil {
			t.Fatal(err)
		}
		sys.Assert("emp", emps...)
		if _, err := sys.Call("main", "build"); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for i, q := range queries {
			res, err := sys.Query(q)
			if err != nil {
				t.Fatalf("%s: query %s: %v", name, q, err)
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, render(row...))
			}
			slices.Sort(got)
			slices.Sort(want[i])
			if len(want[i]) == 0 || !slices.Equal(got, want[i]) {
				t.Fatalf("%s: query %q returned %d rows, want %d:\n%v\nvs\n%v",
					name, q, len(got), len(want[i]), got, want[i])
			}
		}
	}
}
