package vm

import (
	"testing"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// TestPlanCacheClassesGeometricBumps checks the class vector the executor
// computes for a statement's inputs on the main-memory store: it changes
// each time a relation crosses a power of two (so a relation growing to n
// rows re-plans O(log n) times), stays put across churn inside a class and
// across a repeat loop's clear-and-refill at one size, and tells an absent
// relation from an empty one. The vector is built in the machine's
// scratch: once that has grown, computing it allocates nothing.
func TestPlanCacheClassesGeometricBumps(t *testing.T) {
	store := storage.NewMemStore(storage.IndexAdaptive)
	checkClasses(t, store)
	f := &frame{m: &Machine{EDB: store}}
	ref := plan.RelRef{Space: plan.SpaceEDB, Name: term.Ground(term.Intern("r")), Arity: 1}
	refs := []plan.RelRef{ref, ref}
	f.classes(refs)
	if allocs := testing.AllocsPerRun(100, func() { f.classes(refs) }); allocs != 0 {
		t.Errorf("computing a class vector allocates %.1f objects, want 0", allocs)
	}
}

// TestPlanCacheClassesLayered runs the same checks on the layered baseline.
func TestPlanCacheClassesLayered(t *testing.T) {
	checkClasses(t, storage.NewLayeredStore(storage.IndexAdaptive))
}

func checkClasses(t *testing.T, store storage.Store) {
	t.Helper()
	row := func(i int) term.Tuple { return term.Tuple{term.NewInt(int64(i))} }
	f := &frame{m: &Machine{EDB: store}}
	name := term.Intern("r")
	refs := []plan.RelRef{{Space: plan.SpaceEDB, Name: term.Ground(name), Arity: 1}}
	class := func() uint8 { return f.classes(refs)[0] }
	if c := class(); c != plan.AbsentClass {
		t.Errorf("an absent relation has class %d, want plan.AbsentClass", c)
	}
	rel := store.Ensure(name, 1)
	empty := class()
	if empty == plan.AbsentClass {
		t.Error("an empty relation has the absent class")
	}

	seen := map[uint8]bool{empty: true}
	for i := 0; i < 1000; i++ {
		rel.Insert(row(i))
		seen[class()] = true
	}
	if len(seen) != 11 { // bits.Len of 0, 1, 2..3, ..., 512..1000
		t.Errorf("growing 0 -> 1000 rows produced %d classes, want 11", len(seen))
	}
	grown := class()

	for i := 0; i < 20; i++ {
		rel.Insert(row(2000 + i))
		rel.Delete(row(2000 + i))
	}
	if class() != grown {
		t.Error("churn inside a class changed the class")
	}

	rel.Clear()
	if class() != empty {
		t.Error("a cleared relation does not have the empty class")
	}
	for i := 0; i < 1000; i++ {
		rel.Insert(row(5000 + i))
	}
	if class() != grown {
		t.Error("clear and refill to the same size changed the class")
	}

	for i := 0; i < 600; i++ {
		rel.Delete(row(5000 + i))
	}
	if class() == grown {
		t.Error("shrinking 1000 -> 400 rows kept the class")
	}

}

// TestPlanCacheSharedAcrossMachines checks that prepared plans belong to the
// compiled program, not to a machine: a second machine on the same program
// and store serves a statement the first already ran from the cache on its
// first run, and a profile reset on either machine makes both plan fresh.
func TestPlanCacheSharedAcrossMachines(t *testing.T) {
	m1 := compileMachine(t, `
edb e(X,Y);
proc two(X:Z)
rels mid(X,Y);
  mid(X,Y) := in(X) & e(X,Y).
  return(X:Z) := mid(X,Y) & e(Y,Z).
end
`, plan.Options{})
	insert(m1, "e", []int64{1, 2}, []int64{2, 3}, []int64{2, 4})
	in := []term.Tuple{{term.NewInt(1)}}
	want, err := m1.CallProc("main.two", in)
	if err != nil {
		t.Fatal(err)
	}
	if s := m1.PlanCacheStats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("first machine: %+v, want 2 misses", s)
	}

	m2 := New(m1.Prog, m1.EDB, nil, m1.Builtins)
	got, err := m2.CallProc("main.two", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("second machine returned %v, first %v", got, want)
	}
	if s := m2.PlanCacheStats(); s.Misses != 0 || s.Hits != 2 {
		t.Fatalf("second machine's first run: %+v, want 2 hits and 0 misses", s)
	}

	m2.ResetProfiles()
	if s := m2.PlanCacheStats(); s != (plan.CacheStats{}) {
		t.Fatalf("counters after ResetProfiles = %+v, want zero", s)
	}
	if _, err := m1.CallProc("main.two", in); err != nil {
		t.Fatal(err)
	}
	if s := m1.PlanCacheStats(); s.Misses != 4 {
		t.Fatalf("after another machine's reset: %+v, want 2 more misses", s)
	}
}

// TestPlanCacheTwoKeysAlternate runs one program on two machines whose
// inputs sit in different cardinality classes — a session holding an old
// snapshot beside live reads after a relation crossed a power of two — and
// alternates their calls. Each machine plans once and then hits: neither
// evicts the other's plan.
func TestPlanCacheTwoKeysAlternate(t *testing.T) {
	live := compileMachine(t, `
edb e(X,Y);
proc out(X:Y)
  return(X:Y) := in(X) & e(X,Y).
end
`, plan.Options{})
	held := New(live.Prog, storage.NewMemStore(storage.IndexAdaptive), nil, live.Builtins)
	insert(held, "e", []int64{1, 2})
	insert(live, "e", []int64{1, 2}, []int64{1, 3}, []int64{1, 4}, []int64{1, 5})
	in := []term.Tuple{{term.NewInt(1)}}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, m := range []*Machine{live, held} {
			if _, err := m.CallProc("main.out", in); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, m := range map[string]*Machine{"live": live, "held": held} {
		if s := m.PlanCacheStats(); s.Misses != 1 || s.Hits != rounds-1 {
			t.Errorf("%s machine: %+v, want 1 miss and %d hits", name, s, rounds-1)
		}
	}
}
