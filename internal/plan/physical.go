// Physical planning: the compile-time plan (Stmt/Step) is a *logical* plan —
// it fixes segment boundaries, barriers, and register allocation, but the
// order of the streaming ops inside a segment was chosen by static greedy
// scores that cannot tell a 10-tuple relation from a 10M-tuple one (§3.1
// makes subgoal ordering the compiler's central optimisation; LDL++ and
// later bottom-up Datalog systems showed the ordering should consult data).
// A Planner re-derives, at statement-prepare time, a PhysPlan whose pipe ops
// are cost-ordered using live relation statistics (row counts and
// per-column distinct estimates from the storage layer) plus observed
// per-op selectivities fed back by the executor. Re-planning happens on
// every statement execution, so orders adapt between repeat iterations as
// semi-naive deltas shrink.
//
// Reordering is restricted to the ops *within* one segment: barriers (and
// therefore segment boundaries) are fixed subgoals whose order is
// semantically significant (§3.1), and register allocation depends on them.
// Any order of the remaining ops in which each op is runnable — its
// required registers bound — produces the same multiset of supplementary
// rows, so results are identical regardless of the chosen order.
package plan

import (
	"math"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

// RelEstimate is a live statistics snapshot for one relation.
type RelEstimate struct {
	Rows int
	// Distinct holds per-column distinct-value estimates (may be shorter
	// than the arity; missing columns use the default).
	Distinct []int
	// ScanCost/LookupCost are per-row access-cost factors relative to the
	// main-memory engine (0 means the 1.0 baseline): a disk-resident
	// relation reports higher factors, so the greedy orderer weighs a
	// disk scan heavier than an equal-cardinality in-memory one. Engine
	// names the backing engine for EXPLAIN ("" = main memory, omitted).
	ScanCost, LookupCost float64
	Engine               string
}

// StatsSource supplies live relation statistics at statement-prepare time.
// The executor's frame implements it over the EDB store and frame locals;
// ok=false (relation missing, or its name is computed per row) makes the
// planner fall back to conservative defaults.
type StatsSource interface {
	RelStats(ref RelRef) (RelEstimate, bool)
}

// Cost-model defaults for relations without statistics, and the static
// selectivities of non-relation ops.
const (
	defaultRows     = 64.0
	defaultDistinct = 8.0
	// dynFanout is the assumed per-row fanout of a HiLog dispatch whose
	// relation is only known per row.
	dynFanout = 4.0
	selCmpEq  = 0.1
	selCmpOrd = 0.5
	selCmpNe  = 0.9
)

// PhysOp is one streaming operator of a physical plan: a clone of a logical
// pipe op whose BoundMask and Bind sets were re-derived for its physical
// position, annotated with the cost model's estimates.
type PhysOp struct {
	// Op is the executable op. It is a clone — the shared logical plan is
	// never mutated, so concurrent statements (and the NoReorder baseline)
	// keep seeing the compile-time masks.
	Op PipeOp
	// LogIdx is the op's index in the logical Step.Pipe; per-op runtime
	// counters are recorded under it so feedback survives reordering.
	LogIdx int
	// Access names the chosen access path: scan, probe, anti, dyn, filter,
	// or bind.
	Access string
	// EstIn/EstOut estimate the supplementary rows entering and leaving the
	// op; Sel = EstOut/EstIn is the estimated per-row fanout (selectivity).
	EstIn, EstOut float64
	Sel           float64
	// FromProfile marks a Sel taken from observed executor feedback rather
	// than the static cost model.
	FromProfile bool
	// Cost is the score the greedy orderer compares: EstOut times the
	// relation's per-backend access-cost factor for the chosen path. With
	// the main-memory engine every factor is 1.0, so Cost == EstOut and
	// the ordering is exactly the min-cardinality one.
	Cost float64
	// Store names the backing engine of the accessed relation ("" = main
	// memory); EXPLAIN surfaces it with the access path.
	Store string
}

// PhysStep is one physical segment: the logical step's barrier and
// materialization decisions with a cost-ordered pipe.
type PhysStep struct {
	Step          *Step // logical step: barrier, dedup, live registers
	Ops           []PhysOp
	EstIn, EstOut float64
}

// PhysPlan is the physical plan of one statement (or until-condition).
type PhysPlan struct {
	Stmt  *Stmt // nil for conditions
	Steps []PhysStep
	// epoch and lo/hi record where the cache may serve the plan: the plan
	// epoch and, per slot reference, an interval of cardinality classes.
	epoch  uint64
	lo, hi []uint8
}

// OpProfile is the executor's per-op feedback: tuples that entered and left
// the op, and the bound mask it ran with. Indexed by logical op position so
// it stays attached to the op across re-orderings.
type OpProfile struct {
	In, Out int64
	Mask    uint32
}

// StepProfile carries one segment's op counters plus the time spent
// pre-building indexes for its parallel fan-out.
type StepProfile struct {
	Ops     []OpProfile
	BuildNs int64
}

// StmtProfile accumulates a statement's execution feedback across runs
// (all executions since the last reset).
type StmtProfile struct {
	Steps []StepProfile
	Execs int64
	// Moved counts the rows the statement's moves handed over.
	Moved int64
}

// NewStmtProfile allocates a profile shaped for the statement's steps.
func NewStmtProfile(steps []Step) *StmtProfile {
	p := &StmtProfile{Steps: make([]StepProfile, len(steps))}
	for k := range steps {
		p.Steps[k].Ops = make([]OpProfile, len(steps[k].Pipe))
	}
	return p
}

// Planner derives physical plans from logical steps and live statistics.
type Planner struct {
	// Stats supplies live relation statistics; nil uses defaults only.
	Stats StatsSource
	// Reorder enables cost-based reordering of each segment's pipe; false
	// keeps the compiled order but still annotates estimates (the logical
	// orderings — textual or greedy — stay selectable as ablations).
	Reorder bool
}

// PlanStmt builds the physical plan for a statement, consulting prof (may
// be nil) for observed per-op selectivities.
func (pl *Planner) PlanStmt(st *Stmt, prof *StmtProfile) *PhysPlan {
	return &PhysPlan{Stmt: st, Steps: pl.PlanSteps(st.Steps, prof)}
}

// PlanSteps builds physical segments for a step list (statement bodies and
// until-conditions share the shape).
func (pl *Planner) PlanSteps(steps []Step, prof *StmtProfile) []PhysStep {
	out := make([]PhysStep, len(steps))
	est := 1.0 // sup_0 = {ε}, §3.2
	var bound regSet
	for k := range steps {
		var ops []OpProfile
		if prof != nil && k < len(prof.Steps) {
			ops = prof.Steps[k].Ops
		}
		out[k] = pl.planStep(&steps[k], est, ops, &bound)
		bound.addOp(steps[k].Barrier)
		est = barrierEst(steps[k].Barrier, out[k].EstOut)
	}
	return out
}

// planStep orders one segment's pipe. Greedy: among the runnable pending
// ops, pick the one with the smallest estimated output cardinality; ties
// break toward the logical order. The loop cannot stall — the earliest
// pending op in logical order always has its compile-time predecessors
// executed (everything before it is no longer pending), so the registers it
// needs are bound. bound holds the registers bound at the segment's
// entry; planStep adds those its ops bind.
func (pl *Planner) planStep(s *Step, estIn float64, prof []OpProfile, bound *regSet) PhysStep {
	ps := PhysStep{Step: s, Ops: make([]PhysOp, 0, len(s.Pipe)), EstIn: estIn}
	pending := make([]int, len(s.Pipe))
	for i := range pending {
		pending[i] = i
	}
	est := estIn
	for len(pending) > 0 {
		best := -1
		var bestOp PhysOp
		for pi, li := range pending {
			po, ok := pl.analyzeOp(s.Pipe[li], li, *bound, est, prof)
			if !ok {
				continue
			}
			if best < 0 || po.Cost < bestOp.Cost {
				best, bestOp = pi, po
			}
			if !pl.Reorder {
				break // keep logical order; pending is ascending
			}
		}
		if best < 0 {
			// Unreachable for well-formed plans; fall back to logical order
			// without binding requirements rather than dropping ops.
			li := pending[0]
			bestOp, _ = pl.analyzeOp(s.Pipe[li], li, *bound, est, prof)
			bestOp.Op = s.Pipe[li]
			best = 0
		}
		pending = append(pending[:best], pending[best+1:]...)
		bound.addOp(bestOp.Op)
		est = bestOp.EstOut
		ps.Ops = append(ps.Ops, bestOp)
	}
	ps.EstOut = est
	if len(s.Pipe) == 0 {
		ps.EstOut = estIn
	}
	return ps
}

// analyzeOp checks whether op can run under the bound-register set and, if
// so, returns its physical clone with re-derived mask/bind and estimates.
func (pl *Planner) analyzeOp(op PipeOp, li int, bound regSet, est float64,
	prof []OpProfile) (PhysOp, bool) {
	po := PhysOp{LogIdx: li, EstIn: est}
	costFactor := 1.0
	switch op := op.(type) {
	case *Match:
		c := *op
		bound.bind(&c)
		if c.Negated && len(c.Bind) > 0 {
			return po, false // negation needs every argument bound
		}
		re, haveStats := pl.relStats(c.Rel)
		fanout := matchFanout(re, haveStats, c.Args, c.BoundMask)
		po.Store = re.Engine
		if op.Negated {
			po.Access = "anti"
			po.Sel = 1 / (1 + fanout)
			costFactor = re.LookupCost
		} else if c.BoundMask != 0 {
			po.Access = "probe"
			po.Sel = fanout
			costFactor = re.LookupCost
		} else {
			po.Access = "scan"
			po.Sel = fanout
			costFactor = re.ScanCost
		}
		po.Op = &c
	case *DynMatch:
		if !bound.hasPat(op.Pred) {
			return po, false // dispatch name must be computable
		}
		c := *op
		bound.bind(&c)
		if op.Negated {
			if len(c.Bind) > 0 {
				return po, false
			}
			po.Sel = 1 / (1 + dynFanout)
		} else {
			po.Sel = dynFanout
		}
		po.Access = "dyn"
		po.Op = &c
	case *Compare:
		if !bound.hasExpr(op.L) || !bound.hasExpr(op.R) {
			return po, false
		}
		po.Access = "filter"
		po.Sel = cmpSel(op)
		po.Op = op // order-insensitive; no clone needed
	case *MatchBind:
		if !bound.hasExpr(op.E) {
			return po, false
		}
		po.Access = "bind"
		po.Sel = 1
		c := *op
		bound.bind(&c)
		po.Op = &c
	default:
		po.Op = op
		po.Sel = 1
	}
	// Observed feedback overrides the static estimate — but only when the
	// op would run with the same mask it was measured with, so a changed
	// access path falls back to the model instead of a stale ratio.
	if li < len(prof) && prof[li].In > 0 && prof[li].Mask == OpMask(po.Op) {
		po.Sel = float64(prof[li].Out) / float64(prof[li].In)
		po.FromProfile = true
	}
	po.EstOut = est * po.Sel
	if costFactor <= 0 {
		costFactor = 1
	}
	po.Cost = po.EstOut * costFactor
	return po, true
}

// matchFanout estimates tuples produced per input row: R / Π d_i over the
// bound columns, i.e. the uniform-distribution join fanout.
func matchFanout(re RelEstimate, ok bool, args []term.Pattern, mask uint32) float64 {
	rows := float64(re.Rows)
	if !ok {
		rows = defaultRows
	}
	sel := 1.0
	for i := range args {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		d := defaultDistinct
		if ok && i < len(re.Distinct) && re.Distinct[i] > 0 {
			d = float64(re.Distinct[i])
		}
		sel *= math.Max(d, 1)
	}
	return rows / sel
}

// relStats resolves live statistics for a statically named relation.
func (pl *Planner) relStats(ref RelRef) (RelEstimate, bool) {
	if pl.Stats == nil || !ref.Name.IsGround() {
		return RelEstimate{}, false
	}
	return pl.Stats.RelStats(ref)
}

// barrierEst propagates the cardinality estimate across a pipeline break.
// Deliberately crude: barriers are fixed, so the estimate only labels the
// next segment's input for EXPLAIN and the next pipe's within-segment
// ordering is unaffected by its absolute scale.
func barrierEst(b BarrierOp, est float64) float64 {
	switch b.(type) {
	case *Aggregate:
		// One row per group; without group statistics, assume heavy
		// collapse but never below one row.
		return math.Max(1, est/8)
	case nil:
		return est
	}
	return est
}

// cmpSel is the static selectivity of a comparison filter.
func cmpSel(c *Compare) float64 {
	switch c.Op {
	case ast.CmpEq:
		return selCmpEq
	case ast.CmpNe:
		return selCmpNe
	}
	return selCmpOrd
}

// OpMask returns the bound mask a physical op runs with (0 for ops without
// one); profile feedback is keyed to it so a changed access path falls back
// to the static model instead of a stale observed ratio.
func OpMask(op PipeOp) uint32 {
	switch op := op.(type) {
	case *Match:
		return op.BoundMask
	case *DynMatch:
		return op.BoundMask
	}
	return 0
}
