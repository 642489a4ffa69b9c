// Executor side of the prepared-plan cache: resolving a statement's
// referenced relations to their current cardinality classes (through the
// frame, so locals shadow the EDB exactly as they do for planning) and
// arbitrating between cache and planner. See internal/plan/cache.go for
// the cache itself and its invalidation rules.
package vm

import (
	"math/bits"

	"gluenail/internal/plan"
	"gluenail/internal/term"
)

// classSig folds the cardinality class — bits.Len of the tuple count — of
// every referenced relation into one signature. A repeat loop whose delta
// and scratch relations are cleared and refilled at the same size keeps
// its signature, so its body's plans are loop-invariant. A missing
// relation folds a sentinel distinct from every class, so "was absent" and
// "exists, empty" never collide — creating a relation the plan assumed
// absent is a cache miss. Allocation-free: the refs slice is cached per
// statement, ground names build without copying, and store lookups intern
// their keys.
func (f *frame) classSig(refs []plan.RelRef) uint64 {
	sig := term.HashSeed
	for i := range refs {
		rel, err := f.resolveRead(refs[i], nil)
		if err != nil || rel == nil {
			sig = plan.SigFold(sig, ^uint64(0))
			continue
		}
		sig = plan.SigFold(sig, uint64(bits.Len(uint(rel.Len()))))
	}
	return sig
}

// stmtPlan returns the statement's physical plan: the cached one while its
// class signature holds and the executor's selectivity feedback has not
// drifted, a freshly planned (and cached) one otherwise.
func (f *frame) stmtPlan(st *plan.Stmt, prof *plan.StmtProfile) *plan.PhysPlan {
	c := f.m.planCache
	e := c.StmtEntry(st)
	sig := f.classSig(e.Refs())
	if pp := c.Lookup(e, sig, prof); pp != nil {
		return pp
	}
	// Miss or invalidation: re-plan with the accumulated profile, so a
	// drift-invalidated plan is immediately replaced by one whose
	// selectivities come from the observed ratios — the next lookup hits.
	pp := f.planner().PlanStmt(st, prof)
	c.Store(e, sig, pp)
	return pp
}

// condPlan is stmtPlan for until-conditions. Conditions accumulate no
// profile, so their cached segments invalidate on class changes only.
func (f *frame) condPlan(cond *plan.Cond) []plan.PhysStep {
	c := f.m.planCache
	e := c.CondEntry(cond)
	sig := f.classSig(e.Refs())
	if steps := c.LookupSteps(e, sig); steps != nil {
		return steps
	}
	steps := f.planner().PlanSteps(cond.Steps, nil)
	c.StoreSteps(e, sig, steps)
	return steps
}
