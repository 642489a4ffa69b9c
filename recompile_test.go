package gluenail

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSourceFactsNotResurrectedByRecompile retracts a fact a source
// declared and then forces a recompile: the fact must stay retracted. Each
// Load inserts its source's facts exactly once; a recompile reads the
// parsed trees and inserts nothing.
func TestSourceFactsNotResurrectedByRecompile(t *testing.T) {
	const facts = "edb edge(X,Y);\nedge(1,2). edge(2,3).\n"
	const rules = "p(X) :- edge(X, _).\n"
	want := "[[2 3]]"
	query := func(t *testing.T, sys *System, goals string) string {
		t.Helper()
		res, err := sys.Query(goals)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	t.Run("mem", func(t *testing.T) {
		sys := New()
		if err := sys.Load(facts); err != nil {
			t.Fatal(err)
		}
		if err := sys.Retract("edge", []any{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(rules); err != nil {
			t.Fatal(err)
		}
		if got := query(t, sys, "edge(X, Y)"); got != want {
			t.Errorf("edge after Retract and Load = %s, want %s", got, want)
		}
		if got := query(t, sys, "p(X)"); got != "[[2]]" {
			t.Errorf("p(X) = %s, want [[2]]", got)
		}
	})
	t.Run("register", func(t *testing.T) {
		sys := New()
		if err := sys.Load(facts + rules); err != nil {
			t.Fatal(err)
		}
		if got := query(t, sys, "edge(X, Y)"); got != "[[1 2] [2 3]]" {
			t.Fatalf("edge before Retract = %s", got)
		}
		if err := sys.Retract("edge", []any{1, 2}); err != nil {
			t.Fatal(err)
		}
		none := func([][]Value) ([][]Value, error) { return nil, nil }
		if err := sys.Register("unused", 0, 1, false, none); err != nil {
			t.Fatal(err)
		}
		if got := query(t, sys, "edge(X, Y)"); got != want {
			t.Errorf("edge after Retract and Register = %s, want %s", got, want)
		}
	})
	t.Run("durable", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		sys, err := Open(dir, WithFsync(FsyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(facts); err != nil {
			t.Fatal(err)
		}
		if got := query(t, sys, "edge(X, Y)"); got != "[[1 2] [2 3]]" {
			t.Fatalf("edge before Retract = %s", got)
		}
		if err := sys.Retract("edge", []any{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(rules); err != nil {
			t.Fatal(err)
		}
		if got := query(t, sys, "edge(X, Y)"); got != want {
			t.Errorf("edge after Retract and Load = %s, want %s", got, want)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen without loading any source: the log alone decides.
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		rows, err := re.Relation("edge", 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != want {
			t.Errorf("edge after reopen = %s, want %s (a recompile wrote the retracted fact to the log)", got, want)
		}
	})
}

// recompileSources are three bare scripts, which merge into one implicit
// main module, and an explicit module.
var recompileSources = []string{
	"edb edge(X,Y);\nedge(1,2). edge(2,3). edge(3,4).\ntc(X,Y) :- edge(X,Y).\ntc(X,Z) :- tc(X,Y) & edge(Y,Z).\n",
	"proc reach(X:Y)\n  return(X:Y) := tc(X,Y).\nend\n",
	"far(X) :- tc(X,Y) & Y > 3.\n",
	"module geo;\nexport near(X:Y);\nedb road(A,B);\nroad(1,2). road(2,5).\nproc near(X:Y)\n  return(X:Y) := road(X,Y) & Y > 1.\nend\nend\n",
}

// recompileState renders what a compiled system shows: its procedures
// (less the transient query procedures, which depend on which queries ran
// since the last compile), one physical plan, and the answers to three
// queries.
func recompileState(t *testing.T, sys *System) string {
	t.Helper()
	ids, err := sys.Procs()
	if err != nil {
		t.Fatal(err)
	}
	var procs []string
	for _, id := range ids {
		if !strings.Contains(id, "$query") {
			procs = append(procs, id)
		}
	}
	explain, err := sys.ExplainProcPhysical("main", "reach")
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("procs %v\n%s", procs, explain)
	for _, q := range [][2]string{{"main", "tc(1, X)"}, {"main", "reach(2, Y)"}, {"geo", "near(1, Y)"}} {
		res, err := sys.QueryIn(q[0], q[1])
		if err != nil {
			t.Fatalf("%s: %v", q[1], err)
		}
		out += fmt.Sprintf("%s: %v\n", q[1], res.Rows)
	}
	return out
}

// TestRecompileFromCachedSources recompiles a system three times from the
// trees Load kept: each time it must look exactly like a fresh system that
// loaded the same sources once, the merged main module must not grow, and
// the parsed trees must not change. A snapshot session queries throughout,
// so under -race the recompiles also run against concurrent readers.
func TestRecompileFromCachedSources(t *testing.T) {
	load := func(sys *System) {
		for _, src := range recompileSources {
			if err := sys.Load(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := New()
	load(fresh)
	want := recompileState(t, fresh)

	live := New()
	load(live)
	sn, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := sn.Query("tc(1, X)")
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(res.Rows); got != "[[2] [3] [4]]" {
				t.Errorf("snapshot tc(1, X) = %s", got)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	none := func([][]Value) ([][]Value, error) { return nil, nil }
	for round := 0; round < 3; round++ {
		if err := live.Register(fmt.Sprintf("unused%d", round), 0, 1, false, none); err != nil {
			t.Fatal(err)
		}
		if got := recompileState(t, live); got != want {
			t.Fatalf("recompile %d differs from a fresh system:\ngot:\n%s\nwant:\n%s", round, got, want)
		}
		live.mu.Lock()
		mainAST := live.lp.Modules["main"].AST
		procs, rules := len(mainAST.Procs), len(mainAST.Rules)
		first := live.sources[0].Modules[0]
		live.mu.Unlock()
		if procs != 1 || rules != 3 {
			t.Errorf("recompile %d: merged main has %d procs and %d rules, want 1 and 3", round, procs, rules)
		}
		if len(first.Procs) != 0 || len(first.Rules) != 2 {
			t.Errorf("recompile %d: first parsed main module changed to %d procs and %d rules, want 0 and 2",
				round, len(first.Procs), len(first.Rules))
		}
	}
}

// TestCompileAllocs pins the allocations of the front end and compiler:
// a fresh system, the load of a fixed two-module program and the first
// Prepare, which links and compiles it.
func TestCompileAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	const maxAllocs = 918.0 // measured 734 (Go 1.24, linux/amd64), plus 25%; 740 while each relation grew a row-header and a dead-stamp array, 748 while answers were sorted by reflection, 1050 while NAIL! loops had |nd and |d relations and a magic loop of their own, 1127 before the binding rule was shared, 1782 when compiles reparsed
	src := `
module graph;
export reach(X:Y);
edb link(X,Y);
link(1,2). link(2,3). link(3,4).
r(X,Y) :- link(X,Y).
r(X,Z) :- r(X,Y) & link(Y,Z).
proc reach(X:Y)
  return(X:Y) := r(X,Y).
end
end
module app;
export go(X:Y), pairs(:X,Y);
from graph import reach(X:Y);
edb seen(X,Y);
proc go(X:Y)
  return(X:Y) := reach(X,Y).
end
proc pairs(:X,Y)
  seen(X,Y) := go(1,Y) & X = Y - 1.
  return(:X,Y) := seen(X,Y) & !go(Y,X).
end
end
`
	allocs := testing.AllocsPerRun(10, func() {
		sys := New()
		if err := sys.Load(src); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PrepareIn("app", "go(1, Y)"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs for New + Load + first Prepare", allocs)
	if allocs > maxAllocs {
		t.Errorf("New + Load + first Prepare allocates %.0f objects, want <= %.0f", allocs, maxAllocs)
	}
}
