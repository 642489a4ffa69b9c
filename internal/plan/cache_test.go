package plan

import (
	"testing"

	"gluenail/internal/term"
)

// cacheStmt builds a minimal statement reading relation r/2, with one
// comparison op, for cache-key tests.
func cacheStmt() *Stmt {
	match := &Match{
		Rel:  RelRef{Space: SpaceEDB, Name: term.Ground(term.Intern("r")), Arity: 2},
		Args: []term.Pattern{term.Var(0), term.Var(1)},
		Bind: []int{0, 1},
	}
	cmp := &Compare{L: RegE{Reg: 0}, R: ConstE{V: term.NewInt(1)}}
	return &Stmt{
		Label: "t",
		NRegs: 2,
		Steps: []Step{{Pipe: []PipeOp{match, cmp}}},
		Head: HeadSpec{
			Ref:  RelRef{Space: SpaceEDB, Name: term.Ground(term.Intern("out")), Arity: 1},
			Args: []term.Pattern{term.Var(0)},
		},
	}
}

// cachePlan builds a physical plan for the statement with the given
// estimated selectivity on its comparison op.
func cachePlan(st *Stmt, cmpSel float64) *PhysPlan {
	step := &st.Steps[0]
	return &PhysPlan{
		Stmt: st,
		Steps: []PhysStep{{
			Step: step,
			Ops: []PhysOp{
				{Op: step.Pipe[0], LogIdx: 0, Sel: 1.0},
				{Op: step.Pipe[1], LogIdx: 1, Sel: cmpSel},
			},
		}},
	}
}

func TestPlanCacheHitMissEpoch(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	if len(slot.Refs()) != 2 {
		t.Fatalf("slot refs = %d, want 2 (body match + head)", len(slot.Refs()))
	}
	if got := slot.Lookup(42, nil, &stats); got != nil {
		t.Fatal("empty slot returned a plan")
	}
	pp := cachePlan(st, 0.5)
	slot.Store(42, pp)
	if got := slot.Lookup(42, nil, &stats); got != pp {
		t.Fatal("same class signature did not hit")
	}
	if got := slot.Lookup(43, nil, &stats); got != nil {
		t.Fatal("changed class signature still hit")
	}
	if stats.Hits != 1 || stats.Misses != 2 || stats.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 0 invalidations", stats)
	}
	// The slot is the statement's, not a caller's: a second executor's
	// counters see the same plan.
	var other CacheStats
	if slot.Lookup(42, nil, &other) != pp || other.Hits != 1 || other.Misses != 0 {
		t.Fatalf("second executor: stats = %+v, want the shared plan as a hit", other)
	}
}

func TestPlanCacheDriftInvalidation(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	pp := cachePlan(st, 0.5)
	slot.Store(7, pp)

	// Observed selectivity within driftFactor of the estimate: still a hit.
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out, op.Mask = 1000, 400, 0
	if slot.Lookup(7, prof, &stats) == nil {
		t.Fatal("in-threshold selectivity was invalidated")
	}

	// Observed far below the estimate: invalidation, and the slot is empty.
	op.In, op.Out = 100000, 100
	if slot.Lookup(7, prof, &stats) != nil {
		t.Fatal("drifted selectivity still hit")
	}
	if stats.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", stats.Invalidations)
	}
	if slot.Lookup(7, nil, &stats) != nil {
		t.Fatal("invalidated slot still holds a plan")
	}

	// Too few observed rows must never invalidate (noise guard).
	slot.Store(7, cachePlan(st, 0.5))
	op.In, op.Out = driftMinRows-1, 0
	if slot.Lookup(7, prof, &stats) == nil {
		t.Fatal("below-floor observation invalidated the plan")
	}
}

func TestPlanCacheReset(t *testing.T) {
	var stats CacheStats
	prog := &Program{}
	st := cacheStmt()
	slot := st.Slot()
	slot.Store(prog.PlanKey(1), cachePlan(st, 0.5))
	if slot.Lookup(prog.PlanKey(1), nil, &stats) == nil {
		t.Fatal("stored plan did not hit")
	}
	prog.ResetPlans()
	if slot.Lookup(prog.PlanKey(1), nil, &stats) != nil {
		t.Fatal("reset program still serves plans")
	}
	// The counters belong to the executor, not the program: ResetPlans
	// leaves them alone (vm's Machine.ResetProfiles zeroes its own; see
	// TestPlanCacheSharedAcrossMachines).
	if stats != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("stats after reset = %+v, want the hit before and one miss", stats)
	}
}

// TestPlanCacheSlotKeepsTwoKeys checks the slot's two ways: two keys stored in
// turn both hit, so two executors whose keys differ do not evict each
// other's plans; a third key evicts the older of the two; re-storing a key
// replaces its plan without evicting the other.
func TestPlanCacheSlotKeepsTwoKeys(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	a, b, c := cachePlan(st, 0.5), cachePlan(st, 0.5), cachePlan(st, 0.5)
	slot.Store(1, a)
	slot.Store(2, b)
	for i := 0; i < 3; i++ {
		if slot.Lookup(1, nil, &stats) != a || slot.Lookup(2, nil, &stats) != b {
			t.Fatalf("round %d: alternating keys did not both hit", i)
		}
	}
	slot.Store(3, c)
	if slot.Lookup(1, nil, &stats) != nil {
		t.Fatal("third key did not evict the older plan")
	}
	if slot.Lookup(2, nil, &stats) != b || slot.Lookup(3, nil, &stats) != c {
		t.Fatal("third key evicted the newer plan")
	}
	c2 := cachePlan(st, 0.5)
	slot.Store(3, c2)
	if slot.Lookup(3, nil, &stats) != c2 || slot.Lookup(2, nil, &stats) != b {
		t.Fatal("re-storing a key evicted the other key's plan")
	}
	if stats != (CacheStats{Hits: 10, Misses: 1}) {
		t.Fatalf("stats = %+v, want 10 hits and 1 miss", stats)
	}
}

// TestPlanCacheLookupNoAllocs pins the hot path's allocation contract: a
// cache hit — including its drift check against a live profile — must not
// allocate. The repeated-query fast path depends on it.
func TestPlanCacheLookupNoAllocs(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	st.Slot().Store(9, cachePlan(st, 0.5))
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out = 1000, 400
	allocs := testing.AllocsPerRun(1000, func() {
		if st.Slot().Lookup(9, prof, &stats) == nil {
			t.Fatal("lookup missed during alloc run")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}
