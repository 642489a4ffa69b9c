// Executor side of the prepared-plan cache: resolving a statement's
// referenced relations to their current cardinality classes (through the
// frame, so locals shadow the EDB exactly as they do for planning) and
// arbitrating between the statement's plan slot and the planner. See
// internal/plan/cache.go for the slots and their invalidation rules.
package vm

import (
	"math/bits"

	"gluenail/internal/plan"
)

// classes fills the machine's class scratch with the cardinality class —
// bits.Len of the tuple count — of every referenced relation. A repeat
// loop whose delta and scratch relations are cleared and refilled at the
// same size keeps its vector, so its body's plans are loop-invariant. A
// missing relation is plan.AbsentClass, distinct from every class, so "was
// absent" and "exists, empty" never collide — creating a relation the plan
// assumed absent is a cache miss. Allocation-free on the main-memory store
// once the scratch has grown to the longest ref list: the refs slice is
// cached per statement, ground names build without copying, and store
// lookups build their keys on the stack. The vector is valid until the
// next call.
func (f *frame) classes(refs []plan.RelRef) []uint8 {
	cs := f.m.classes[:0]
	for i := range refs {
		rel, err := f.resolveRead(refs[i], nil)
		if err != nil || rel == nil {
			cs = append(cs, plan.AbsentClass)
			continue
		}
		cs = append(cs, uint8(bits.Len(uint(rel.Len()))))
	}
	f.m.classes = cs
	return cs
}

// stmtPlan returns the statement's physical plan: a cached one valid for
// the inputs' current classes while the executor's selectivity feedback
// has not drifted, a freshly planned (and cached, for every machine on the
// program) one otherwise.
func (f *frame) stmtPlan(st *plan.Stmt, prof *plan.StmtProfile) *plan.PhysPlan {
	slot := st.Slot()
	epoch, cs := f.m.Prog.Epoch(), f.classes(slot.Refs())
	if pp := slot.Lookup(epoch, cs, prof, &f.m.planStats); pp != nil {
		return pp
	}
	// Miss or invalidation: re-plan with the accumulated profile, so a
	// drift-invalidated plan is immediately replaced by one whose
	// selectivities come from the observed ratios — the next lookup hits.
	pp := f.planner().PlanStmt(st, prof)
	slot.Store(epoch, cs, pp)
	return pp
}

// condPlan is stmtPlan for until-conditions. Conditions accumulate no
// profile, so their cached plans invalidate on class changes only.
func (f *frame) condPlan(cond *plan.Cond) []plan.PhysStep {
	slot := cond.Slot()
	epoch, cs := f.m.Prog.Epoch(), f.classes(slot.Refs())
	if pp := slot.Lookup(epoch, cs, nil, &f.m.planStats); pp != nil {
		return pp.Steps
	}
	pp := &plan.PhysPlan{Steps: f.planner().PlanSteps(cond.Steps, nil)}
	slot.Store(epoch, cs, pp)
	return pp.Steps
}
