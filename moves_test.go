package gluenail

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// Move tests. A ":=" that only copies one frame relation into another
// whose source is dead afterwards, and a statement that only forwards a
// compiled procedure's results, take over the source's storage instead of
// copying it (DESIGN §5.26). Each case below runs a query and fills a
// stored relation from the same goals; the golden file pins the answers
// and the stored order on each configuration. The first cases have a
// move; the rest look like one but must copy. The golden was generated
// before moves existed, so it is the copying executor's output.
// Regenerate with `go test -run TestMoveKinds -update`.

const moveProg = `
edb edge(X, Y), parent(C, P), zero(X), succ(X, Y), e(X), holder(R);

tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y) & edge(Y, Z).
sibling(X, Y) :- parent(X, P) & parent(Y, P) & X != Y.
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP) & sg(XP, YP) & parent(Y, YP).
ev(X) :- zero(X).
ev(Y) :- od(X) & succ(X, Y).
od(Y) :- ev(X) & succ(X, Y).

proc c_local(:X)
rels t(X);
  t(X) := e(X) & X > 1.
  return(:X) := t(X).
end

proc pass(X:)
  return(X:) := in(X).
end

proc c_in(:X)
  return(:X) := e(X) & pass(X).
end

proc c_fwd(:X, Y)
rels l(X, Y);
  l(X, Y) := tc(X, Y).
  return(:X, Y) := l(X, Y).
end

proc c_dead(:X)
rels s(X), t(X);
  s(X) := e(X).
  t(X) := s(X).
  s(X) := e(X) & X > 2.
  return(:X) := t(X) & s(X).
end

proc c_later(:X)
rels s(X), t(X);
  s(X) := e(X).
  t(X) := s(X).
  return(:X) := t(X) & s(X).
end

proc c_until(:X)
rels s(X), t(X), acc(X);
  t(X) := e(X).
  repeat
    s(Y) := t(X) & succ(X, Y).
    acc(X) += s(X).
    t(X) := s(X).
  until empty(s(_));
  return(:X) := acc(X) & X >= 0.
end

proc c_unchanged(:X)
rels s(X), t(X), acc(X), seen(X);
  acc(X) := e(X).
  repeat
    s(X) := acc(X).
    t(X) := s(X).
    seen(X) += t(X) & unchanged(s(_)).
    acc(Y) += t(X) & succ(X, Y).
  until unchanged(acc(_));
  return(:X) := acc(X) & !seen(X).
end

proc c_empty(:X)
rels s(X), t(X), u(X);
  s(X) := e(X).
  t(X) := s(X).
  u(X) := e(X) & X > 2 & empty(s(_)).
  return(:X) := t(X) & !u(X).
end

proc c_grow(:X)
rels s(X), t(X);
  s(X) := e(X).
  t(X) := s(X).
  s(Y) += e(X) & succ(X, Y).
  return(:X) := t(X) & X >= 0.
end

proc c_hilog(:X)
rels s(X), t(X);
  s(X) := e(X).
  t(X) := s(X).
  return(:X) := holder(R) & R(X).
end

proc none(:)
  return(:) := e(X) & X > 100.
end

proc c_negcall(:)
  return(:) := !none().
end

proc c_builtin(:L)
  return(:L) := read_line(L).
end

proc c_go(:X)
  return(:X) := gen(X).
end
`

// moveCases are run in order: a query, then a procedure filling r_<name>
// from the same goals. moves counts the statements both run as moves:
// every forwarded query and each call's "return := p|ff" or
// "return := t"; a query with a repeated argument is not forwarded, and
// one with a constant argument only into the query's own return.
// (Semi-naive deltas are slot ranges of the full relations and
// are not moved; while a "d := nd" moved them, tc counted 13 moves, sg 9,
// pair 27, fwd 17, bound 10 and repeated 12.)
var moveCases = []struct {
	name, goals string
	vars        []string
	moves       int64
}{
	// Shapes that move: a NAIL! procedure's "return := p|ff" (tc, sg and
	// a mutually recursive pair), a forwarded query,
	// "return := local", "return := in", forwarding into a local, and a
	// source overwritten before it is read again.
	{"tc", "tc(X, Y)", []string{"X", "Y"}, 3},
	{"sg", "sg(X, Y)", []string{"X", "Y"}, 3},
	{"pair", "od(X)", []string{"X"}, 3},
	{"local", "c_local(X)", []string{"X"}, 3},
	{"in", "c_in(X)", []string{"X"}, 3},
	{"fwd", "c_fwd(X, Y)", []string{"X", "Y"}, 7},
	{"dead", "c_dead(X)", []string{"X"}, 3},
	// Look-alikes: the source is read later, by an until, by unchanged, by
	// empty, by a "+=" head or through HiLog; the call has a repeated
	// argument, is negated, or runs a builtin or a Go procedure. A bound
	// tc's "return := tc|bf" moves, as does the query forwarding it with
	// its constant, but not the ":=" of it into r_bound.
	{"later", "c_later(X)", []string{"X"}, 1},
	{"until", "c_until(X)", []string{"X"}, 1},
	{"unchanged", "c_unchanged(X)", []string{"X"}, 1},
	{"empty", "c_empty(X)", []string{"X"}, 1},
	{"grow", "c_grow(X)", []string{"X"}, 1},
	{"hilog", "c_hilog(X)", []string{"X"}, 1},
	{"bound", "tc(1, Y)", []string{"Y"}, 3},
	{"repeated", "tc(X, X)", []string{"X"}, 2},
	{"negcall", "c_negcall()", nil, 1},
	{"builtin", "c_builtin(L)", []string{"L"}, 1},
	{"go", "c_go(X)", []string{"X"}, 1},
}

// moveProgram is moveProg plus one stored relation and one filling
// procedure per case.
func moveProgram() string {
	var sb strings.Builder
	sb.WriteString(moveProg)
	for _, c := range moveCases {
		args := strings.Join(c.vars, ", ")
		wild := strings.TrimSuffix(strings.Repeat("_, ", len(c.vars)), ", ")
		fmt.Fprintf(&sb, "edb r_%s(%s);\n", c.name, args)
		fmt.Fprintf(&sb, "proc f_%s(:)\n  r_%s(%s) := %s.\n  return(:) := r_%s(%s).\nend\n",
			c.name, c.name, args, c.goals, c.name, wild)
	}
	return sb.String()
}

var moveConfigs = []struct {
	name string
	opts func(t *testing.T) []Option
}{
	{"mem", func(*testing.T) []Option { return nil }},
	{"disk", func(*testing.T) []Option { return []Option{WithBackend("disk")} }},
	{"spill", func(t *testing.T) []Option { return []Option{WithSpill(t.TempDir(), 2)} }},
	{"materialized", func(*testing.T) []Option { return []Option{WithBaseline("materialized")} }},
}

// newMoveSystem loads the move program and its facts.
func newMoveSystem(t *testing.T, opts []Option) *System {
	t.Helper()
	sys := New(append(opts, WithInput(strings.NewReader("alpha\nbeta\n")))...)
	err := sys.Register("gen", 0, 1, false, func(in [][]Value) ([][]Value, error) {
		return [][]Value{{Int(3)}, {Int(1)}, {Int(2)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(moveProgram()); err != nil {
		t.Fatal(err)
	}
	facts := []struct {
		rel  string
		rows [][]any
	}{
		{"edge", [][]any{{1, 2}, {2, 3}, {3, 4}, {2, 5}, {5, 3}, {4, 1}, {6, 7}}},
		{"parent", [][]any{{2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 3}, {8, 4}, {9, 6}, {10, 5}}},
		{"zero", [][]any{{0}}},
		{"succ", [][]any{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		{"e", [][]any{{3}, {1}, {4}, {2}}},
		{"holder", [][]any{{"s"}}},
	}
	for _, f := range facts {
		if err := sys.Assert(f.rel, f.rows...); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// runMoveCase runs one case's query and filling procedure and renders the
// answers and the stored relation, both in order.
func runMoveCase(t *testing.T, sys *System, name, goals string, arity int) string {
	t.Helper()
	res, err := sys.Query(goals)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := sys.Call("main", "f_"+name); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r, ok := sys.edb.Get(Str("r_"+name), arity)
	if !ok {
		t.Fatalf("no relation r_%s", name)
	}
	return fmt.Sprintf("%s answers: %v\n%s stored: %v\n", name, res.Rows, name, r.All())
}

// TestMoveKinds pins the answers and stored order of every move shape and
// look-alike on mem, disk, spill and materialized. Stored orders follow
// each configuration's plans; the answers must agree across them.
func TestMoveKinds(t *testing.T) {
	var got strings.Builder
	var firstAnswers string
	for _, c := range moveConfigs {
		sys := newMoveSystem(t, c.opts(t))
		var out, answers strings.Builder
		for _, mc := range moveCases {
			before := sys.Stats().Exec.Moves
			text := runMoveCase(t, sys, mc.name, mc.goals, len(mc.vars))
			if n := sys.Stats().Exec.Moves - before; n != mc.moves {
				t.Errorf("%s: %s made %d moves, want %d", c.name, mc.name, n, mc.moves)
			}
			out.WriteString(text)
			answers.WriteString(strings.SplitN(text, "\n", 2)[0])
		}
		sys.Close()
		if firstAnswers == "" {
			firstAnswers = answers.String()
		} else if answers.String() != firstAnswers {
			t.Errorf("%s answers differ from mem:\n%s", c.name, out.String())
		}
		fmt.Fprintf(&got, "== %s\n%s", c.name, out.String())
	}
	const golden = "testdata/moves.out"
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
		t.Errorf("move output changed:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestMovesBesideSnapshots runs the move cases on a live system while
// snapshot sessions query tc(X, Y), whose NAIL! procedure and forwarded
// query move on every machine: the sessions must see the copying
// executor's answers throughout. check.sh runs it under -race.
func TestMovesBesideSnapshots(t *testing.T) {
	golden, err := os.ReadFile("testdata/moves.out")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := strings.Cut(strings.TrimPrefix(string(golden), "== mem\n"), "== ")
	sys := newMoveSystem(t, nil)
	defer sys.Close()
	tc, err := sys.Query("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	wantTC := fmt.Sprint(tc.Rows)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				snap, err := sys.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				res, err := snap.Query("tc(X, Y)")
				snap.Close()
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(res.Rows); got != wantTC {
					errs <- fmt.Errorf("snapshot tc(X, Y) = %s, want %s", got, wantTC)
					return
				}
			}
		}()
	}
	var got strings.Builder
	for _, mc := range moveCases {
		got.WriteString(runMoveCase(t, sys, mc.name, mc.goals, len(mc.vars)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got.String() != want {
		t.Errorf("beside snapshots the cases answer\n%s\nwant\n%s", got.String(), want)
	}
}

// boundMoveProg has a left-linear tc, whose magic set is its seed in and
// whose return is a move, and a right-linear rtc, whose magic set grows
// from edge and whose return must keep its join with in; and Glue
// procedures over tc with a constant and a bound argument.
const boundMoveProg = `
edb edge(X, Y), start(X);

tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y) & edge(Y, Z).
rtc(X, Y) :- edge(X, Y).
rtc(X, Z) :- edge(X, Y) & rtc(Y, Z).

proc from1(:Y)
  return(:Y) := tc(1, Y).
end

proc from1_barrier(:Y)
  return(:Y) := from1(Y) & Y > 0.
end

proc reach(X:Y)
  return(X:Y) := tc(X, Y).
end

proc reach_count(X:N)
  return(X:N) := tc(X, Y) & group_by(X) & N = count(Y).
end
`

// TestBoundMovesMatchFreeQuery checks every bound query shape whose
// return may be a move against the free tc(X, Y) or rtc(X, Y), which no
// magic set rewrites, filtered on the bound column: a query with a
// constant argument takes its callee's return whole, constant column and
// all, and only the read-out may drop that column.
func TestBoundMovesMatchFreeQuery(t *testing.T) {
	sys := New()
	defer sys.Close()
	if err := sys.Load(boundMoveProg); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", recursionOrderEdges...); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("start", []any{9}, []any{6}, []any{1}); err != nil {
		t.Fatal(err)
	}
	// free returns the free query's rows whose column col holds one of
	// keys, keeping the other column, or both with both.
	free := func(pred string, col int, both bool, keys ...int64) string {
		res, err := sys.Query(pred + "(X, Y)")
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]Value
		for _, r := range res.Rows {
			for _, k := range keys {
				if r[col].Equal(Int(k)) && both {
					rows = append(rows, r)
				} else if r[col].Equal(Int(k)) {
					rows = append(rows, r[1-col:2-col])
				}
			}
		}
		return fmt.Sprint(rows)
	}
	tc1 := free("tc", 0, false, 1)
	for _, c := range []struct {
		name, goals, want string
		moves             int64
	}{
		// The query's return and tc@bf's "return := tc|bf" both move.
		{"left-linear", "tc(1, Y)", tc1, 2},
		// Magic seeds m|rtc|bf from edge, so rtc|bf holds rows for other
		// first columns: its return joins in, and only the query moves.
		{"right-linear", "rtc(1, Y)", free("rtc", 0, false, 1), 1},
		// tc|fb stores (X, Y) and the return reads (Y, X): a copy.
		{"fb", "tc(X, 4)", free("tc", 1, false, 4), 1},
		// from1 calls tc@bf with a constant, but its return is not a
		// query's: it keeps its own one column, through a call barrier
		// and through the query's forwarding move alike.
		{"glue forwarded", "from1(Y)", tc1, 2},
		{"glue barrier", "from1(Y) & Y > 0", tc1, 1},
		{"glue in a barrier", "from1_barrier(Y)", tc1, 2},
		{"glue bound", "reach(1, Y)", tc1, 2},
		{"glue aggregate", "reach_count(1, N)", fmt.Sprintf("[[%d]]", strings.Count(tc1, " ")+1), 2},
		{"all bound", "tc(1, 4)", "[[]]", 2},
		{"not derived", "tc(1, 9)", "[]", 2},
		// Three inputs in one call: the callee's return still moves, since
		// every tc|bf row joins exactly one of in's rows.
		{"inputs", "start(S) & tc(S, Y)", free("tc", 0, true, 1, 6, 9), 1},
	} {
		before := sys.Stats().Exec.Moves
		res, err := sys.Query(c.goals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprint(res.Rows); got != c.want {
			t.Errorf("%s: %s = %s, want %s", c.name, c.goals, got, c.want)
		}
		if n := sys.Stats().Exec.Moves - before; n != c.moves {
			t.Errorf("%s: %s made %d moves, want %d", c.name, c.goals, n, c.moves)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		res, err = snap.Query(c.goals)
		snap.Close()
		if err != nil {
			t.Fatalf("%s in a snapshot: %v", c.name, err)
		}
		if got := fmt.Sprint(res.Rows); got != c.want {
			t.Errorf("%s in a snapshot: %s = %s, want %s", c.name, c.goals, got, c.want)
		}
	}
	// The semijoin a right-linear return keeps, and the move a left-linear
	// one makes instead.
	for goals, want := range map[string]string{
		"rtc(1, Y)": "match local:in/1",
		"tc(1, Y)":  "move from local:'tc|bf'/2",
	} {
		plan, err := sys.Explain(goals)
		if err != nil {
			t.Fatal(err)
		}
		_, ret, _ := strings.Cut(plan, "stmt return($0,$1) :=")
		if !strings.Contains(ret, want) {
			t.Errorf("%s: the callee's return does not show %q:\n%s", goals, want, plan)
		}
	}
}
