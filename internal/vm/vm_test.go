package vm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/term"
)

// compileMachine builds a machine from source with the standard builtins,
// and the queries as main.$query1, main.$query2, ...
func compileMachine(t *testing.T, src string, popts plan.Options, queries ...string) *Machine {
	t.Helper()
	reg := NewRegistry()
	popts.Builtin = reg.Sig
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lp, err := modsys.LinkWith(prog, modsys.Options{Known: reg.Has})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	c := plan.NewCompiler(lp, popts)
	if err := c.CompileAll(); err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, q := range queries {
		gs, err := parser.ParseGoals(q)
		if err == nil {
			_, _, err = c.CompileQuery("main", gs)
		}
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
	}
	edb := storage.NewMemStore(storage.IndexAdaptive)
	return New(c.Program(), edb, nil, reg)
}

func insert(m *Machine, rel string, rows ...[]int64) {
	for _, row := range rows {
		t := make(term.Tuple, len(row))
		for i, v := range row {
			t[i] = term.NewInt(v)
		}
		m.EDB.Ensure(term.NewString(rel), len(row)).Insert(t)
	}
}

func TestCallProcBasic(t *testing.T) {
	m := compileMachine(t, `
edb e(X,Y);
proc succ(X:Y)
  return(X:Y) := in(X) & e(X,Y).
end
`, plan.Options{})
	insert(m, "e", []int64{1, 2}, []int64{1, 3}, []int64{2, 4})
	out, err := m.CallProc("main.succ", []term.Tuple{{term.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("succ(1) = %v", out)
	}
	if _, err := m.CallProc("nope", nil); err == nil {
		t.Error("unknown proc should fail")
	}
	if _, err := m.CallProc("main.succ", []term.Tuple{{}}); err == nil {
		t.Error("wrong input arity should fail")
	}
}

// TestFrameLocalsAreDropped runs calls that leave through every exit a
// frame has — a plain return, a nested call barrier, a HiLog family
// dispatch, self-recursion, a budget trip mid-body, a spilling temp store,
// moves and a forwarded call on it followed by a budget trip, a query
// forwarding a call with a constant argument, and moves and a forwarded
// call on the layered baseline's temp store — and checks that each
// releases every relation its allocator made.
func TestFrameLocalsAreDropped(t *testing.T) {
	cases := []struct {
		name, src, proc, query string
		in                     term.Tuple
		setup                  func(t *testing.T, m *Machine)
		wantErr                error
		// check, when set, confirms the case ran the path it names.
		check func(t *testing.T, m *Machine, out []term.Tuple)
	}{
		{name: "plain", proc: "main.p", in: term.Tuple{}, src: `
edb e(X);
proc p(:X)
rels tmp(X);
  tmp(X) := e(X).
  return(:X) := tmp(X).
end
`},
		{name: "nested call barrier", proc: "main.q", in: term.Tuple{}, src: `
edb e(X);
proc p(:X)
rels tmp(X);
  tmp(X) := e(X).
  return(:X) := tmp(X).
end
proc q(:X)
rels got(X), again(X);
  got(X) := p(X).
  again(X) := got(X) & p(X).
  return(:X) := again(X).
end
`},
		{name: "family dispatch", proc: "main.go", in: term.Tuple{}, src: `
edb attends(N, ID), holder(S), e(X);
students(ID)(N) :- attends(N, ID).
proc go(:X)
rels out(X);
  out(X) := holder(S) & S(X).
  return(:X) := out(X).
end
`, setup: func(t *testing.T, m *Machine) {
			m.EDB.Ensure(term.NewString("holder"), 1).Insert(term.Tuple{term.Atom("students", term.NewInt(7))})
			insert(m, "attends", []int64{1, 7}, []int64{2, 8})
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			if len(out) != 1 || !out[0].Equal(term.Tuple{term.NewInt(1)}) || m.Stats.ProcCalls != 2 {
				t.Errorf("family dispatch: out=%v calls=%d", out, m.Stats.ProcCalls)
			}
		}},
		{name: "self-recursion", proc: "main.last", in: term.Tuple{term.NewInt(1)}, src: `
edb e(X,Y);
proc last(X:Y)
rels nxt(X,Z);
  nxt(X,Z) := in(X) & e(X,Z).
  return(X:Y) := nxt(X,Z) & last(Z,Y).
end
`, setup: func(t *testing.T, m *Machine) {
			insert(m, "e", []int64{1, 2}, []int64{2, 3}, []int64{3, 4})
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			if m.Stats.ProcCalls != 4 {
				t.Errorf("recursion made %d calls, want 4", m.Stats.ProcCalls)
			}
		}},
		{name: "budget trip mid-body", proc: "main.outer", in: term.Tuple{}, src: `
edb e(X);
proc blow(:X)
rels tmp(X,Y);
  tmp(X,Y) := e(X) & e(Y).
  return(:X) := tmp(X,_).
end
proc outer(:X)
rels got(X);
  got(X) := blow(X).
  return(:X) := got(X).
end
`, wantErr: ErrMemoryBudget, setup: func(t *testing.T, m *Machine) {
			m.MaxRelRows = 50
			for i := int64(0); i < 40; i++ {
				insert(m, "e", []int64{i})
			}
		}},
		{name: "spill temp store", proc: "main.q", in: term.Tuple{}, src: `
edb e(X);
proc p(:X)
rels tmp(X);
  tmp(X) := e(X).
  return(:X) := tmp(X).
end
proc q(:X)
rels got(X);
  got(X) := p(X).
  return(:X) := got(X).
end
`, setup: func(t *testing.T, m *Machine) {
			spillTemp(t, m)
			for i := int64(0); i < 10; i++ {
				insert(m, "e", []int64{i})
			}
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			if len(out) != 10 || m.Temp.Stats().RowsSpilled == 0 {
				t.Errorf("spill: out=%v spilled=%d", out, m.Temp.Stats().RowsSpilled)
			}
		}},
		{name: "moves on spill, then a budget trip", proc: "main.walk", in: term.Tuple{}, src: `
edb e(X), s(X, Y), big(X, Y);
proc walk(:X)
rels nd(X), d(X), acc(X);
  d(X) := e(X).
  acc(X) := d(X) & X >= 0.
  repeat
    nd(Y) := d(X) & s(X, Y).
    d(X) := nd(X).
    acc(X) += d(X).
  until empty(d(_));
  big(X, Y) := acc(X) & acc(Y).
  return(:X) := acc(X).
end
`, wantErr: ErrMemoryBudget, setup: func(t *testing.T, m *Machine) {
			spillTemp(t, m)
			m.MaxRelRows = 50
			for i := int64(0); i < 10; i++ {
				insert(m, "s", []int64{i, i + 1})
			}
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			if m.Stats.Moves < 10 || m.Temp.Stats().RowsSpilled == 0 {
				t.Errorf("moves on spill: moves=%d spilled=%d", m.Stats.Moves, m.Temp.Stats().RowsSpilled)
			}
		}},
		{name: "forwarding on spill, then a budget trip", proc: "main.q", in: term.Tuple{}, src: `
edb e(X), big(X, Y);
proc p(:X)
rels tmp(X);
  tmp(X) := e(X) & X >= 0.
  return(:X) := tmp(X).
end
proc q(:X)
rels got(X);
  got(X) := p(X).
  big(X, Y) := got(X) & got(Y).
  return(:X) := got(X).
end
`, wantErr: ErrMemoryBudget, setup: func(t *testing.T, m *Machine) {
			spillTemp(t, m)
			m.MaxRelRows = 50
			for i := int64(0); i < 10; i++ {
				insert(m, "e", []int64{i})
			}
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			// p's return and the forwarding into got: two moves.
			if m.Stats.Moves != 2 || m.Temp.Stats().RowsSpilled == 0 {
				t.Errorf("forwarding on spill: moves=%d spilled=%d", m.Stats.Moves, m.Temp.Stats().RowsSpilled)
			}
		}},
		{name: "bound forwarded call", proc: "main.$query1", query: "tc(2, Y)", in: term.Tuple{}, src: `
edb e(X), edge(X, Y);
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y) & edge(Y, Z).
`, setup: func(t *testing.T, m *Machine) {
			insert(m, "edge", []int64{1, 2}, []int64{2, 3}, []int64{3, 4})
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			// The query's return and tc@bf's: two moves; the read-out
			// drops the constant 2.
			want := []term.Tuple{{term.NewInt(3)}, {term.NewInt(4)}}
			if !slices.EqualFunc(out, want, term.Tuple.Equal) || m.Stats.Moves != 2 {
				t.Errorf("bound forwarded call: out=%v moves=%d", out, m.Stats.Moves)
			}
		}},
		{name: "layered temp store", proc: "main.q", in: term.Tuple{}, src: `
edb e(X);
proc p(:X)
rels tmp(X);
  tmp(X) := e(X) & X >= 0.
  return(:X) := tmp(X).
end
proc q(:X)
rels got(X);
  got(X) := p(X).
  return(:X) := got(X).
end
`, setup: func(t *testing.T, m *Machine) {
			m.Temp = storage.NewLayeredStore(storage.IndexAdaptive)
		}, check: func(t *testing.T, m *Machine, out []term.Tuple) {
			// p's return, the forwarding into got and q's return.
			if len(out) != 1 || m.Stats.Moves != 3 || m.Temp.Stats().LogBytes == 0 {
				t.Errorf("layered: out=%v moves=%d log bytes=%d", out, m.Stats.Moves, m.Temp.Stats().LogBytes)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var queries []string
			if tc.query != "" {
				queries = append(queries, tc.query)
			}
			m := compileMachine(t, tc.src, plan.Options{}, queries...)
			insert(m, "e", []int64{1})
			if tc.setup != nil {
				tc.setup(t, m)
			}
			before := m.Temp.Stats().RelsCreated
			out, err := m.CallProc(tc.proc, []term.Tuple{tc.in})
			if tc.wantErr == nil && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("want %v, got %v", tc.wantErr, err)
			}
			st := m.Temp.Stats()
			if st.RelsCreated <= before {
				t.Error("frame should create temp relations")
			}
			if st.RelsCreated != st.RelsDropped {
				t.Errorf("temp relations leaked: created=%d released=%d", st.RelsCreated, st.RelsDropped)
			}
			if tc.check != nil {
				tc.check(t, m, out)
			}
		})
	}
}

// spillTemp gives the machine a temp store that spills past two rows.
func spillTemp(t *testing.T, m *Machine) {
	temp, err := disk.NewScratch(t.TempDir(), 2, storage.IndexAdaptive, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { temp.Close() })
	m.Temp = temp
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestCallAllocs gates what a warm procedure call allocates. The procedure
// has four declared locals and one statement, so frame set-up — six temp
// relations and the frame — is most of the count. maxAllocs
// is the measured value plus about 25 %.
func TestCallAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop entries, so pooled scratch re-allocates")
	}
	// measured 17 (Go 1.24, linux/amd64); 21 while each relation grew a
	// row-header and a dead-stamp array, 35 while each relation made a
	// hash map and column digests up front and each call barrier its
	// input slab, 50 while each frame relation was named by a
	// $frame(id, name) compound and found through a map
	const maxAllocs = 21
	m := compileMachine(t, `
edb e(X,Y);
proc succ(X:Y)
rels a(X), b(X), c(X), d(X);
  return(X:Y) := in(X) & e(X,Y).
end
`, plan.Options{})
	insert(m, "e", []int64{1, 2})
	in := []term.Tuple{{term.NewInt(1)}}
	call := func() {
		if _, err := m.CallProc("main.succ", in); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the plan cache and the batch scratch
	allocs := testing.AllocsPerRun(20, call)
	t.Logf("%.0f allocs per call", allocs)
	if allocs > maxAllocs {
		t.Errorf("a call allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}

func TestPipelinedAndMaterializedAgree(t *testing.T) {
	src := `
edb a(X,Y), b(Y,Z), c(Z,W), out(X,W);
proc go(:)
  out(X,W) := a(X,Y) & b(Y,Z) & c(Z,W) & X != W.
  return(:) := out(_,_).
end
`
	run := func(materialized bool) ([]term.Tuple, ExecStats) {
		m := compileMachine(t, src, plan.Options{})
		m.Materialized = materialized
		insert(m, "a", []int64{1, 2}, []int64{2, 3})
		insert(m, "b", []int64{2, 5}, []int64{3, 5}, []int64{3, 6})
		insert(m, "c", []int64{5, 1}, []int64{6, 9})
		if _, err := m.CallProc("main.go", []term.Tuple{{}}); err != nil {
			t.Fatal(err)
		}
		rel, _ := m.EDB.Get(term.NewString("out"), 2)
		return storage.Sorted(rel), m.Stats
	}
	pipeRows, pipeStats := run(false)
	matRows, matStats := run(true)
	if len(pipeRows) != len(matRows) {
		t.Fatalf("strategies disagree: %v vs %v", pipeRows, matRows)
	}
	for i := range pipeRows {
		if !pipeRows[i].Equal(matRows[i]) {
			t.Fatalf("strategies disagree: %v vs %v", pipeRows, matRows)
		}
	}
	if matStats.TuplesMaterialized <= pipeStats.TuplesMaterialized {
		t.Errorf("materialized strategy should copy more tuples: %d vs %d",
			matStats.TuplesMaterialized, pipeStats.TuplesMaterialized)
	}
}

func TestDedupAtBreaks(t *testing.T) {
	// A projection-style join producing duplicates ahead of a procedure
	// call: dedup shrinks the input set.
	src := `
edb a(X,Y), out(X);
proc idp(X:)
  return(X:) := in(X).
end
proc go(:)
  out(X) := a(X,_) & idp(X).
  return(:) := out(_).
end
`
	run := func(noDedup bool) ExecStats {
		m := compileMachine(t, src, plan.Options{NoDedup: noDedup})
		insert(m, "a", []int64{1, 1}, []int64{1, 2}, []int64{1, 3}, []int64{2, 1})
		if _, err := m.CallProc("main.go", []term.Tuple{{}}); err != nil {
			t.Fatal(err)
		}
		return m.Stats
	}
	with := run(false)
	without := run(true)
	if with.RowsDeduped == 0 {
		t.Error("dedup should remove duplicate rows")
	}
	if without.RowsDeduped != 0 {
		t.Error("NoDedup should disable dedup")
	}
}

func TestUnchangedSemantics(t *testing.T) {
	// unchanged is always false the first time (§4), so a loop whose body
	// changes nothing still runs exactly once... and terminates on the
	// second check.
	m := compileMachine(t, `
edb x(V), count(V);
proc go(:)
  repeat
    count(1) += x(_).
  until unchanged(count(_));
  return(:) := count(_).
end
`, plan.Options{})
	insert(m, "x", []int64{5})
	if _, err := m.CallProc("main.go", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	// First iteration inserts (1) (a change). Second iteration inserts
	// nothing -> unchanged -> exit.
	if m.Stats.LoopIterations != 2 {
		t.Errorf("loop iterations = %d, want 2", m.Stats.LoopIterations)
	}
}

// TestUnchangedSeesMovedRelation checks that unchanged(t) remembers which
// relation it saw. "t := s" moves, so t's slot alternates between two
// relations that are each cleared and refilled with the same row:
// their versions collide, and a memory of versions alone would report t
// unchanged on the second check. The copy changed t's version every
// iteration, so the loop runs until its counter reaches 3.
func TestUnchangedSeesMovedRelation(t *testing.T) {
	m := compileMachine(t, `
edb e(X);
proc run(:I)
rels s(X), t(X), k(I);
  k(I) := I = 0.
  repeat
    s(X) := e(X).
    t(X) := s(X).
    k(J) := k(I) & J = I + 1.
  until { unchanged(t(_)) | k(3) };
  return(:I) := k(I).
end
`, plan.Options{})
	insert(m, "e", []int64{2})
	out, err := m.CallProc("main.run", []term.Tuple{{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Moves == 0 {
		t.Fatal("t := s did not move")
	}
	if len(out) != 1 || !out[0].Equal(term.Tuple{term.NewInt(3)}) {
		t.Errorf("the loop ended with k = %v, want (3)", out)
	}
}

func TestReturnExitsEarly(t *testing.T) {
	var buf bytes.Buffer
	m := compileMachine(t, `
edb e(X);
proc go(:X)
  return(:X) := e(X).
  never() := e(X) & write('should not run').
end
edb never();
`, plan.Options{})
	m.Out = &buf
	insert(m, "e", []int64{1})
	out, err := m.CallProc("main.go", []term.Tuple{{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("out = %v", out)
	}
	if buf.Len() != 0 {
		t.Errorf("statement after return executed: %q", buf.String())
	}
}

func TestEmptyBodyStopsSideEffects(t *testing.T) {
	// §3.2: execution stops when a supplementary relation is empty, so the
	// write after an empty match must not run.
	var buf bytes.Buffer
	m := compileMachine(t, `
edb e(X), out(X);
proc go(:)
  out(X) := e(X) & write(X).
  return(:) := out(_).
end
`, plan.Options{})
	m.Out = &buf
	if _, err := m.CallProc("main.go", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("write ran on empty supplementary: %q", buf.String())
	}
}

func TestClearingAssignOnEmptyBodyClears(t *testing.T) {
	m := compileMachine(t, `
edb tgt(X), src(X);
proc go(:)
  tgt(X) := src(X).
  return(:) := tgt(_).
end
`, plan.Options{})
	insert(m, "tgt", []int64{9})
	if _, err := m.CallProc("main.go", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	rel, _ := m.EDB.Get(term.NewString("tgt"), 1)
	if rel.Len() != 0 {
		t.Errorf("tgt should be cleared by := with empty body: %v", rel.All())
	}
}

func TestHiLogHeadCreatesSetRelations(t *testing.T) {
	m := compileMachine(t, `
edb member(G, X);
proc build(:)
  group(G)(X) := member(G, X).
  return(:) := member(_,_).
end
`, plan.Options{})
	m.EDB.Ensure(term.NewString("member"), 2).Insert(
		term.Tuple{term.NewString("a"), term.NewInt(1)})
	m.EDB.Ensure(term.NewString("member"), 2).Insert(
		term.Tuple{term.NewString("b"), term.NewInt(2)})
	if _, err := m.CallProc("main.build", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	ga, ok := m.EDB.Get(term.Atom("group", term.NewString("a")), 1)
	if !ok || ga.Len() != 1 {
		t.Errorf("group(a) = %v", ga)
	}
	gb, ok := m.EDB.Get(term.Atom("group", term.NewString("b")), 1)
	if !ok || !gb.Contains(term.Tuple{term.NewInt(2)}) {
		t.Error("group(b) missing")
	}
}

func TestRecursiveProcCalls(t *testing.T) {
	// Procedures may be called recursively with per-invocation locals (§4).
	m := compileMachine(t, `
edb e(X,Y);
proc down(X:Y)
rels next(Y), deeper(Y);
  next(Y) := in(X) & e(X,Y).
  deeper(Z) := next(Y) & down(Y, Z).
  return(X:Y) := next(Y).
  return(X:Y) += deeper(Y).
end
`, plan.Options{})
	_ = m
	// Note: return exits after the first return statement; the second is
	// unreachable, so only direct successors are returned. This documents
	// the §4 exit semantics.
	insert(m, "e", []int64{1, 2}, []int64{2, 3})
	out, err := m.CallProc("main.down", []term.Tuple{{term.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("down(1) = %v (return should exit the procedure)", out)
	}
}

func TestLoopLimitEnforced(t *testing.T) {
	m := compileMachine(t, `
edb flag(X);
proc spin(:)
  repeat
    flag(1) += flag(1).
  until empty(flag(_));
  return(:) := flag(_).
end
`, plan.Options{})
	m.LoopLimit = 3
	insert(m, "flag", []int64{1})
	_, err := m.CallProc("main.spin", []term.Tuple{{}})
	if err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Errorf("want loop-limit error, got %v", err)
	}
}

func TestRuntimeErrorWrapping(t *testing.T) {
	m := compileMachine(t, `
edb p(X), out(X);
proc go(:)
  out(Y) := p(X) & Y = X / 0.
  return(:) := out(_).
end
`, plan.Options{})
	insert(m, "p", []int64{1})
	_, err := m.CallProc("main.go", []term.Tuple{{}})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division error, got %v", err)
	}
	if !strings.Contains(err.Error(), "main.go") {
		t.Errorf("error should carry proc context: %v", err)
	}
}

func TestReadLineBuiltin(t *testing.T) {
	m := compileMachine(t, `
edb seen(L);
proc slurp(:)
  repeat
    seen(L) += read_line(L).
  until unchanged(seen(_));
  return(:) := seen(_).
end
`, plan.Options{})
	m.In = bufioReader("alpha\nbeta\n")
	if _, err := m.CallProc("main.slurp", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	rel, _ := m.EDB.Get(term.NewString("seen"), 1)
	if rel.Len() != 2 {
		t.Errorf("seen = %v", rel.All())
	}
}

// countingScratch is a temp allocator that counts its live relations and
// records their peak.
type countingScratch struct {
	storage.Scratch
	live, peak int
}

func (s *countingScratch) New(arity int) storage.Rel {
	s.live++
	s.peak = max(s.peak, s.live)
	return s.Scratch.New(arity)
}

func (s *countingScratch) Release(r storage.Rel) {
	s.live--
	s.Scratch.Release(r)
}

// TestFrameRelationsStayBounded checks that the frame relations live at
// once do not grow with a loop's iterations, also when moves swap frame
// slots or hand a callee's return to its caller on every iteration: the
// loop procedure peaks at the same count for 5 iterations and for 50.
func TestFrameRelationsStayBounded(t *testing.T) {
	peak := func(iters int) int {
		m := compileMachine(t, fmt.Sprintf(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
proc all(:X,Y)
  return(:X,Y) := tc(X,Y).
end
proc from1(:Y)
  return(:Y) := tc(1,Y).
end
proc loop(:X,Y)
rels l(X,Y), k(I);
  k(I) := I = 0.
  repeat
    l(X,Y) := tc(X,Y).
    k(J) := k(I) & J = I + 1.
  until k(%d);
  return(:X,Y) := l(X,Y).
end
`, iters), plan.Options{})
		insert(m, "edge", []int64{1, 2}, []int64{2, 3}, []int64{3, 4}, []int64{4, 1}, []int64{2, 5})
		temp := &countingScratch{Scratch: storage.NewMemStore(storage.IndexAdaptive)}
		m.Temp = temp
		for _, proc := range []string{"main.all", "main.from1", "main.loop"} {
			for i := 0; i < 3; i++ {
				if _, err := m.CallProc(proc, []term.Tuple{{}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.Stats.Moves == 0 {
			t.Fatal("no statement ran as a move")
		}
		if temp.live != 0 {
			t.Errorf("%d iterations: %d frame relations left live", iters, temp.live)
		}
		return temp.peak
	}
	p5, p50 := peak(5), peak(50)
	t.Logf("peak live frame relations: %d for 5 iterations, %d for 50", p5, p50)
	if p5 != p50 {
		t.Errorf("peak live frame relations: %d for 5 iterations, %d for 50", p5, p50)
	}
}
