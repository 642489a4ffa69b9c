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
	c := NewPlanCache()
	st := cacheStmt()
	e := c.StmtEntry(st)
	if len(e.Refs()) != 2 {
		t.Fatalf("entry refs = %d, want 2 (body match + head)", len(e.Refs()))
	}
	if got := c.Lookup(e, 42, nil); got != nil {
		t.Fatal("empty entry returned a plan")
	}
	pp := cachePlan(st, 0.5)
	c.Store(e, 42, pp)
	if got := c.Lookup(e, 42, nil); got != pp {
		t.Fatal("same class signature did not hit")
	}
	if got := c.Lookup(e, 43, nil); got != nil {
		t.Fatal("changed class signature still hit")
	}
	stats := c.Stats()
	if stats.Hits != 1 || stats.Misses != 2 || stats.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 0 invalidations", stats)
	}
}

func TestPlanCacheDriftInvalidation(t *testing.T) {
	c := NewPlanCache()
	st := cacheStmt()
	e := c.StmtEntry(st)
	pp := cachePlan(st, 0.5)
	c.Store(e, 7, pp)

	// Observed selectivity within driftFactor of the estimate: still a hit.
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out, op.Mask = 1000, 400, 0
	if c.Lookup(e, 7, prof) == nil {
		t.Fatal("in-threshold selectivity was invalidated")
	}

	// Observed far below the estimate: invalidation, and the entry is gone.
	op.In, op.Out = 100000, 100
	if c.Lookup(e, 7, prof) != nil {
		t.Fatal("drifted selectivity still hit")
	}
	stats := c.Stats()
	if stats.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", stats.Invalidations)
	}
	if c.Lookup(e, 7, nil) != nil {
		t.Fatal("invalidated entry still holds a plan")
	}

	// Too few observed rows must never invalidate (noise guard).
	c.Store(e, 7, pp)
	op.In, op.Out = driftMinRows-1, 0
	if c.Lookup(e, 7, prof) == nil {
		t.Fatal("below-floor observation invalidated the plan")
	}
}

func TestPlanCacheReset(t *testing.T) {
	c := NewPlanCache()
	st := cacheStmt()
	e := c.StmtEntry(st)
	c.Store(e, 1, cachePlan(st, 0.5))
	c.Lookup(e, 1, nil)
	c.Reset()
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
	e2 := c.StmtEntry(st)
	if c.Lookup(e2, 1, nil) != nil {
		t.Fatal("reset cache still serves plans")
	}
}

// TestPlanCacheLookupNoAllocs pins the hot path's allocation contract: a
// cache hit — including its drift check against a live profile — must not
// allocate. The repeated-query fast path depends on it.
func TestPlanCacheLookupNoAllocs(t *testing.T) {
	c := NewPlanCache()
	st := cacheStmt()
	e := c.StmtEntry(st)
	c.Store(e, 9, cachePlan(st, 0.5))
	prof := NewStmtProfile(st.Steps)
	op := &prof.Steps[0].Ops[1]
	op.In, op.Out = 1000, 400
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Lookup(e, 9, prof) == nil {
			t.Fatal("lookup missed during alloc run")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}
