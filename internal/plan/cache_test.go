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

// cls is a class vector for the cache tests' two-ref statement.
func cls(body, head uint8) []uint8 { return []uint8{body, head} }

func TestPlanCacheHitMissEpoch(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	if len(slot.Refs()) != 2 {
		t.Fatalf("slot refs = %d, want 2 (body match + head)", len(slot.Refs()))
	}
	if got := slot.Lookup(0, cls(4, 1), nil, &stats); got != nil {
		t.Fatal("empty slot returned a plan")
	}
	pp := cachePlan(st, 0.5)
	slot.Store(0, cls(4, 1), pp)
	if got := slot.Lookup(0, cls(4, 1), nil, &stats); got != pp {
		t.Fatal("same class vector did not hit")
	}
	if got := slot.Lookup(0, cls(5, 1), nil, &stats); got != nil {
		t.Fatal("changed class vector still hit")
	}
	if got := slot.Lookup(1, cls(4, 1), nil, &stats); got != nil {
		t.Fatal("changed epoch still hit")
	}
	if stats.Hits != 1 || stats.Misses != 3 || stats.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 0 invalidations", stats)
	}
	// The slot is the statement's, not a caller's: a second executor's
	// counters see the same plan.
	var other CacheStats
	if slot.Lookup(0, cls(4, 1), nil, &other) != pp || other.Hits != 1 || other.Misses != 0 {
		t.Fatalf("second executor: stats = %+v, want the shared plan as a hit", other)
	}
}

func TestPlanCacheDriftInvalidation(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	pp := cachePlan(st, 0.5)
	slot.Store(0, cls(3, 0), pp)

	// Observed selectivity within driftFactor of the estimate: still a hit.
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out, op.Mask = 1000, 400, 0
	if slot.Lookup(0, cls(3, 0), prof, &stats) == nil {
		t.Fatal("in-threshold selectivity was invalidated")
	}

	// Observed far below the estimate: invalidation, and the slot is empty.
	op.In, op.Out = 100000, 100
	if slot.Lookup(0, cls(3, 0), prof, &stats) != nil {
		t.Fatal("drifted selectivity still hit")
	}
	if stats.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", stats.Invalidations)
	}
	if slot.Lookup(0, cls(3, 0), nil, &stats) != nil {
		t.Fatal("invalidated slot still holds a plan")
	}

	// Too few observed rows must never invalidate (noise guard).
	slot.Store(0, cls(3, 0), cachePlan(st, 0.5))
	op.In, op.Out = driftMinRows-1, 0
	if slot.Lookup(0, cls(3, 0), prof, &stats) == nil {
		t.Fatal("below-floor observation invalidated the plan")
	}
}

func TestPlanCacheReset(t *testing.T) {
	var stats CacheStats
	prog := &Program{}
	st := cacheStmt()
	slot := st.Slot()
	slot.Store(prog.Epoch(), cls(1, 1), cachePlan(st, 0.5))
	if slot.Lookup(prog.Epoch(), cls(1, 1), nil, &stats) == nil {
		t.Fatal("stored plan did not hit")
	}
	prog.ResetPlans()
	if slot.Lookup(prog.Epoch(), cls(1, 1), nil, &stats) != nil {
		t.Fatal("reset program still serves plans")
	}
	// The counters belong to the executor, not the program: ResetPlans
	// leaves them alone (vm's Machine.ResetProfiles zeroes its own; see
	// TestPlanCacheSharedAcrossMachines).
	if stats != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("stats after reset = %+v, want the hit before and one miss", stats)
	}
}

// shapedPlan is cachePlan with the comparison op run first: a plan of the
// same statement with a different shape.
func shapedPlan(st *Stmt) *PhysPlan {
	pp := cachePlan(st, 0.5)
	ops := pp.Steps[0].Ops
	ops[0], ops[1] = ops[1], ops[0]
	return pp
}

// TestPlanCacheSlotKeepsTwoKeys checks the slot's two ways: plans of two
// shapes stored in turn both hit, so two executors whose classes differ
// do not evict each other's plans; a third shape evicts the older of the
// two; re-storing a shape's classes replaces its plan without evicting the
// other.
func TestPlanCacheSlotKeepsTwoKeys(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	slot := st.Slot()
	a, b := cachePlan(st, 0.5), shapedPlan(st)
	c := cachePlan(st, 0.5)
	c.Steps[0].Ops[1].Access = "probe"
	slot.Store(0, cls(1, 0), a)
	slot.Store(0, cls(2, 0), b)
	for i := 0; i < 3; i++ {
		if slot.Lookup(0, cls(1, 0), nil, &stats) != a || slot.Lookup(0, cls(2, 0), nil, &stats) != b {
			t.Fatalf("round %d: alternating classes did not both hit", i)
		}
	}
	slot.Store(0, cls(3, 0), c)
	if slot.Lookup(0, cls(1, 0), nil, &stats) != nil {
		t.Fatal("third shape did not evict the older plan")
	}
	if slot.Lookup(0, cls(2, 0), nil, &stats) != b || slot.Lookup(0, cls(3, 0), nil, &stats) != c {
		t.Fatal("third shape evicted the newer plan")
	}
	c2 := cachePlan(st, 0.5)
	c2.Steps[0].Ops[1].Access = "probe"
	slot.Store(0, cls(3, 0), c2)
	if slot.Lookup(0, cls(3, 0), nil, &stats) != c2 || slot.Lookup(0, cls(2, 0), nil, &stats) != b {
		t.Fatal("re-storing a shape evicted the other shape's plan")
	}
	if stats != (CacheStats{Hits: 10, Misses: 1}) {
		t.Fatalf("stats = %+v, want 10 hits and 1 miss", stats)
	}
}

// TestPlanCacheIntervals checks how stored plans cover class vectors: a
// plan of a shape already in the slot widens that way's interval box, a
// plan of another shape takes the other way, an absent input never shares
// an interval with a present one, an epoch bump misses every interval,
// and a hit inside a widened interval allocates nothing.
func TestPlanCacheIntervals(t *testing.T) {
	st := cacheStmt()
	t.Run("same shape widens", func(t *testing.T) {
		var stats CacheStats
		slot := (&Stmt{Steps: st.Steps, Head: st.Head}).Slot()
		a, a2 := cachePlan(st, 0.5), cachePlan(st, 0.5)
		slot.Store(0, cls(9, 9), a)
		slot.Store(0, cls(2, 13), a2)
		for _, c := range [][]uint8{cls(9, 9), cls(2, 13), cls(5, 10), cls(2, 9), cls(9, 13)} {
			if slot.Lookup(0, c, nil, &stats) != a2 {
				t.Errorf("classes %v inside the widened box missed", c)
			}
		}
		for _, c := range [][]uint8{cls(1, 9), cls(10, 9), cls(9, 8), cls(9, 14)} {
			if slot.Lookup(0, c, nil, &stats) != nil {
				t.Errorf("classes %v outside the widened box hit", c)
			}
		}
		if slot.plans[1].Load() != nil {
			t.Error("widening the interval filled the second way")
		}
	})
	t.Run("other shape takes the other way", func(t *testing.T) {
		var stats CacheStats
		slot := (&Stmt{Steps: st.Steps, Head: st.Head}).Slot()
		a, b := cachePlan(st, 0.5), shapedPlan(st)
		slot.Store(0, cls(1, 1), a)
		slot.Store(0, cls(3, 3), b)
		if slot.Lookup(0, cls(1, 1), nil, &stats) != a || slot.Lookup(0, cls(3, 3), nil, &stats) != b {
			t.Fatal("two shapes do not both hit their own classes")
		}
		if slot.Lookup(0, cls(2, 2), nil, &stats) != nil {
			t.Fatal("classes between two shapes' intervals hit")
		}
	})
	t.Run("absent and present never widen", func(t *testing.T) {
		var stats CacheStats
		slot := (&Stmt{Steps: st.Steps, Head: st.Head}).Slot()
		absent, present := cachePlan(st, 0.5), cachePlan(st, 0.5)
		slot.Store(0, cls(4, AbsentClass), absent)
		slot.Store(0, cls(4, 0), present)
		if slot.Lookup(0, cls(4, AbsentClass), nil, &stats) != absent {
			t.Fatal("the absent-head plan was widened away")
		}
		if slot.Lookup(0, cls(4, 0), nil, &stats) != present {
			t.Fatal("the present-head plan does not hit")
		}
		if slot.Lookup(0, cls(4, 7), nil, &stats) != nil {
			t.Fatal("a present class outside both plans hit")
		}
	})
	t.Run("epoch bump misses", func(t *testing.T) {
		var stats CacheStats
		slot := (&Stmt{Steps: st.Steps, Head: st.Head}).Slot()
		slot.Store(0, cls(1, 1), cachePlan(st, 0.5))
		fresh := cachePlan(st, 0.5)
		slot.Store(1, cls(5, 5), fresh)
		if slot.Lookup(1, cls(1, 1), nil, &stats) != nil {
			t.Fatal("a new-epoch plan widened over an old-epoch interval")
		}
		if slot.Lookup(1, cls(5, 5), nil, &stats) != fresh || slot.Lookup(2, cls(5, 5), nil, &stats) != nil {
			t.Fatal("epoch does not select the plan")
		}
	})
	t.Run("widened hit allocates nothing", func(t *testing.T) {
		var stats CacheStats
		slot := (&Stmt{Steps: st.Steps, Head: st.Head}).Slot()
		slot.Store(0, cls(9, 9), cachePlan(st, 0.5))
		slot.Store(0, cls(0, 13), cachePlan(st, 0.5))
		inside := cls(5, 11)
		allocs := testing.AllocsPerRun(1000, func() {
			if slot.Lookup(0, inside, nil, &stats) == nil {
				t.Fatal("lookup inside the widened box missed")
			}
		})
		if allocs != 0 {
			t.Fatalf("widened-interval hit allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestPlanCacheLookupNoAllocs pins the hot path's allocation contract: a
// cache hit — including its drift check against a live profile — must not
// allocate. The repeated-query fast path depends on it.
func TestPlanCacheLookupNoAllocs(t *testing.T) {
	var stats CacheStats
	st := cacheStmt()
	classes := cls(9, 0)
	st.Slot().Store(0, classes, cachePlan(st, 0.5))
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out = 1000, 400
	allocs := testing.AllocsPerRun(1000, func() {
		if st.Slot().Lookup(0, classes, prof, &stats) == nil {
			t.Fatal("lookup missed during alloc run")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}
