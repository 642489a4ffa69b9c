// Executor side of the prepared-plan cache: resolving a statement's
// referenced relations to their current cardinality classes (through the
// frame, so locals shadow the EDB exactly as they do for planning) and
// arbitrating between the statement's plan slot and the planner. See
// internal/plan/cache.go for the slots and their invalidation rules.
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

// planKey is the key a slot's plan must carry to be served: the class
// signature of its relations folded with the program's plan epoch.
func (f *frame) planKey(slot *plan.PlanSlot) uint64 {
	return f.m.Prog.PlanKey(f.classSig(slot.Refs()))
}

// stmtPlan returns the statement's physical plan: the cached one while its
// key holds and the executor's selectivity feedback has not drifted, a
// freshly planned (and cached, for every machine on the program) one
// otherwise.
func (f *frame) stmtPlan(st *plan.Stmt, prof *plan.StmtProfile) *plan.PhysPlan {
	slot := st.Slot()
	key := f.planKey(slot)
	if pp := slot.Lookup(key, prof, &f.m.planStats); pp != nil {
		return pp
	}
	// Miss or invalidation: re-plan with the accumulated profile, so a
	// drift-invalidated plan is immediately replaced by one whose
	// selectivities come from the observed ratios — the next lookup hits.
	pp := f.planner().PlanStmt(st, prof)
	slot.Store(key, pp)
	return pp
}

// condPlan is stmtPlan for until-conditions. Conditions accumulate no
// profile, so their cached plans invalidate on key changes only.
func (f *frame) condPlan(cond *plan.Cond) []plan.PhysStep {
	slot := cond.Slot()
	key := f.planKey(slot)
	if pp := slot.Lookup(key, nil, &f.m.planStats); pp != nil {
		return pp.Steps
	}
	pp := &plan.PhysPlan{Steps: f.planner().PlanSteps(cond.Steps, nil)}
	slot.Store(key, pp)
	return pp.Steps
}
