package bench

import (
	"testing"

	"gluenail"
	"gluenail/internal/storage"
)

func TestSyntheticProgramCompiles(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		src := SyntheticProgram(n)
		if err := CompileSource(src); err != nil {
			t.Errorf("SyntheticProgram(%d) does not compile: %v", n, err)
		}
	}
}

func TestChainAndRandomEdges(t *testing.T) {
	if got := len(ChainEdges(10)); got != 9 {
		t.Errorf("ChainEdges(10) = %d edges", got)
	}
	e1 := RandomEdges(50, 100, 42)
	e2 := RandomEdges(50, 100, 42)
	if len(e1) != 100 {
		t.Errorf("RandomEdges = %d edges", len(e1))
	}
	for i := range e1 {
		if e1[i][0] != e2[i][0] || e1[i][1] != e2[i][1] {
			t.Fatal("RandomEdges should be deterministic by seed")
		}
	}
}

func TestTCSystemAnswers(t *testing.T) {
	sys := NewTCSystem(ChainEdges(10))
	res, err := sys.Query("tc(1, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Errorf("tc(1,X) over chain(10) = %d rows, want 9", len(res.Rows))
	}
	// Naive and magic-less systems agree.
	for _, opts := range [][]gluenail.Option{
		{gluenail.WithBaseline("naive")},
		{gluenail.WithBaseline("no-magic")},
	} {
		s2 := NewTCSystem(ChainEdges(10), opts...)
		r2, err := s2.Query("tc(1, X)")
		if err != nil {
			t.Fatal(err)
		}
		if len(r2.Rows) != 9 {
			t.Errorf("baseline tc rows = %d", len(r2.Rows))
		}
	}
}

func TestJoinSystemStrategiesAgree(t *testing.T) {
	run := func(opts ...gluenail.Option) [][]gluenail.Value {
		sys := NewJoinSystem(200, 4, opts...)
		if err := RunJoin(sys); err != nil {
			t.Fatal(err)
		}
		rows, err := sys.Relation("out", 2)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	pipe := run()
	mat := run(gluenail.WithBaseline("materialized"))
	if len(pipe) == 0 || len(pipe) != len(mat) {
		t.Fatalf("strategy disagreement: %d vs %d rows", len(pipe), len(mat))
	}
}

func TestDupSystemAgree(t *testing.T) {
	run := func(opts ...gluenail.Option) int {
		sys := NewDupSystem(50, 8, opts...)
		if err := RunDup(sys); err != nil {
			t.Fatal(err)
		}
		rows, _ := sys.Relation("out", 2)
		return len(rows)
	}
	with := run()
	without := run(gluenail.WithBaseline("no-dedup"))
	if with != without || with != 200 {
		t.Errorf("dup-elim changed answers: %d vs %d (want 200)", with, without)
	}
}

func TestRunSelectionsPolicies(t *testing.T) {
	const rows, keys, q = 2000, 50, 16
	adaptive := RunSelections(storage.IndexAdaptive, rows, keys, q)
	never := RunSelections(storage.IndexNever, rows, keys, q)
	always := RunSelections(storage.IndexAlways, rows, keys, q)
	if never.IndexBuilds != 0 || never.RowsScanned != rows*q {
		t.Errorf("never: %+v", never)
	}
	if always.IndexBuilds != 1 || always.RowsScanned != 0 {
		t.Errorf("always: %+v", always)
	}
	if adaptive.IndexBuilds != 1 {
		t.Errorf("adaptive should build exactly one index: %+v", adaptive)
	}
	if adaptive.RowsScanned == 0 || adaptive.RowsScanned >= never.RowsScanned {
		t.Errorf("adaptive scan cost should sit between always and never: %+v", adaptive)
	}
}

func TestDispatchSystemAgree(t *testing.T) {
	run := func(opts ...gluenail.Option) int {
		sys := NewDispatchSystem(8, 20, 30, opts...)
		if err := RunDispatch(sys); err != nil {
			t.Fatal(err)
		}
		rows, _ := sys.Relation("out", 1)
		return len(rows)
	}
	narrowed := run()
	baseline := run(gluenail.WithBaseline("no-narrow"))
	if narrowed != 8*20 || narrowed != baseline {
		t.Errorf("dispatch rows: narrowed=%d baseline=%d want %d", narrowed, baseline, 8*20)
	}
}

func TestSetEqSystems(t *testing.T) {
	sys := NewSetEqSystem(10, 20)
	if err := RunSetEqByName(sys); err != nil {
		t.Fatal(err)
	}
	byName, _ := sys.Relation("same", 2)
	sys2 := NewSetEqSystem(10, 20)
	if err := RunSetEqByMembers(sys2); err != nil {
		t.Fatal(err)
	}
	byMembers, _ := sys2.Relation("same", 2)
	// All sets have identical members, so the extensional comparison finds
	// every pair equal; name comparison finds only the identical names.
	if len(byName) != 5 {
		t.Errorf("by-name pairs = %d, want 5", len(byName))
	}
	if len(byMembers) != 10 {
		t.Errorf("by-members pairs = %d, want 10", len(byMembers))
	}
}

func TestTemporariesBackendsAgree(t *testing.T) {
	mem := NewTemporariesSystem(30)
	if err := RunTemporaries(mem, 10); err != nil {
		t.Fatal(err)
	}
	lay := NewTemporariesSystem(30, gluenail.WithBaseline("layered"))
	if err := RunTemporaries(lay, 10); err != nil {
		t.Fatal(err)
	}
	if lay.Stats().Scratch.LogBytes == 0 {
		t.Error("layered backend should log temporary-relation traffic")
	}
	if mem.Stats().Scratch.LogBytes != 0 {
		t.Error("tailored backend should not log")
	}
}

func TestReorderSystemAgree(t *testing.T) {
	run := func(opts ...gluenail.Option) int {
		sys := NewReorderSystem(200, opts...)
		if err := RunReorder(sys); err != nil {
			t.Fatal(err)
		}
		rows, _ := sys.Relation("out", 2)
		return len(rows)
	}
	ordered := run()
	source := run(gluenail.WithBaseline("no-reorder"))
	if ordered != source || ordered != 2*200 {
		t.Errorf("reorder results: ordered=%d source=%d want %d", ordered, source, 400)
	}
}

func TestCadRunSelects(t *testing.T) {
	r := NewCadRun(400)
	key, err := r.Select()
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Error("no element selected")
	}
	// Repeatable.
	key2, err := r.Select()
	if err != nil {
		t.Fatal(err)
	}
	if key != key2 {
		t.Errorf("selection not deterministic: %q vs %q", key, key2)
	}
}

// TestSkewJoinOrderingsAgree checks E12's correctness side: textual,
// greedy, and statistics-driven orderings produce byte-identical join
// results on the skewed workload.
func TestSkewJoinOrderingsAgree(t *testing.T) {
	modes := map[string][]gluenail.Option{
		"textual": {gluenail.WithBaseline("no-reorder")},
		"greedy":  {gluenail.WithBaseline("greedy-order")},
		"stats":   nil,
	}
	var ref, refName string
	for name, opts := range modes {
		sys := NewSkewJoinSystem(2000, 50, 3, opts...)
		got, err := SkewJoinResult(sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == "" {
			t.Fatalf("%s: empty join result", name)
		}
		if ref == "" {
			ref, refName = got, name
			continue
		}
		if got != ref {
			t.Errorf("%s result differs from %s", name, refName)
		}
	}
}
