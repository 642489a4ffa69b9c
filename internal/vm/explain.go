package vm

import (
	"fmt"

	"gluenail/internal/plan"
)

// edbStats resolves planning statistics for EDB relations only — the view
// available outside a procedure frame (frame locals exist only during
// execution, so EXPLAIN of an un-run procedure uses defaults for them).
type edbStats struct{ m *Machine }

func (s edbStats) RelStats(ref plan.RelRef) (plan.RelEstimate, bool) {
	if ref.Space != plan.SpaceEDB || !ref.Name.IsGround() {
		return plan.RelEstimate{}, false
	}
	name, err := ref.Name.Build(nil)
	if err != nil {
		return plan.RelEstimate{}, false
	}
	rel, ok := s.m.EDB.Get(name, ref.Arity)
	if !ok {
		return plan.RelEstimate{}, false
	}
	return relEstimate(rel), true
}

// ExplainPhysical renders the physical plan of a compiled procedure.
// With analyze=false the plan is derived fresh from current statistics
// (EXPLAIN); with analyze=true the procedure's last executed plans are
// preferred and annotated with the accumulated per-op actual tuple counts
// (EXPLAIN ANALYZE — run the procedure between ResetProfiles and this
// call).
func (m *Machine) ExplainPhysical(procID string, analyze bool) (string, error) {
	proc, ok := m.Prog.Proc(procID)
	if !ok {
		return "", fmt.Errorf("vm: no procedure %q", procID)
	}
	pl := &plan.Planner{Stats: edbStats{m}, Reorder: m.StatsOrdering}
	f := &plan.PhysFormatter{
		Plan: func(steps []plan.Step, st *plan.Stmt) []plan.PhysStep {
			if analyze && st != nil {
				if pp := m.lastPhys[st]; pp != nil {
					return pp.Steps
				}
			}
			return pl.PlanSteps(steps, nil)
		},
		Profile: func(st *plan.Stmt) *plan.StmtProfile {
			if analyze {
				return m.profiles[st]
			}
			return nil
		},
	}
	return f.Proc(proc), nil
}
