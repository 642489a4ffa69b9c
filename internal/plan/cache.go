// Prepared-plan cache. Physical planning re-derives a PhysPlan on every
// statement execution so op orders track live statistics — but for the
// repeated-query hot path (the same small statement executed thousands of
// times, or a repeat loop in steady state) the statistics rarely change,
// and the O(ops²) greedy reorder plus the op clones and hint slices it
// allocates dominate the execution itself. Every compiled Stmt and Cond
// therefore carries a PlanSlot of physical plans, each recording the plan
// epoch it was planned under and, per referenced relation, an interval of
// cardinality classes (bits.Len(Len()), or AbsentClass). A plan is served
// back, allocation-free, while the epoch matches and every input's current
// class lies inside its interval.
//
// The slot lives on the compiled statement, not on an executor: every
// machine running the program — the live one and each snapshot session's —
// reads and fills the same slots. A plan is immutable once stored, so
// sharing needs no lock: each way of the slot is an atomic pointer. Each
// machine keeps its own hit/miss/invalidation counters (CacheStats).
//
// The two ways hold two plan shapes (ops per step, their order and access
// paths). A miss whose new plan has the shape of a way's plan replaces it
// with the union of both intervals: a semi-naive loop's shrinking delta and
// growing result pass through many class vectors with one shape, and once
// one pass has widened the interval, every later pass hits. A new shape is
// stored newest first and a third evicts the older, so two shapes — say, a
// session on an old snapshot beside the live machine after an input
// crossed into a class with another join order — each keep hitting.
//
// A stale plan is never wrong — any runnable op order yields the same
// result multiset (see the package comment in physical.go) — only possibly
// slow, so the cache can afford coarse invalidation:
//
//   - an input whose class leaves every interval misses, so a relation
//     growing to n rows re-plans O(log n) times; a relation cleared and
//     refilled to the same class keeps its plans. A relation hovering
//     across a power of two re-plans at most once per shape, since the
//     widened interval then spans both classes. That hysteresis is bought
//     by serving a plan for class combinations between those it was
//     planned for, until the drift check below disagrees. Absent and present never share an interval:
//     creating a relation a plan assumed absent always misses;
//   - executor selectivity feedback is checked against the cached plan's
//     estimates on every hit, and a per-op drift past driftFactor forces a
//     re-plan (an invalidation) that bakes the observed ratios in. Two
//     machines whose feedback disagrees that much replace each other's
//     plans; each replacement is still a correct plan;
//   - ResetPlans bumps the program's plan epoch, so the next run of each
//     statement plans fresh (EXPLAIN ANALYZE) unless another machine
//     re-planned it first under the new epoch. The bump discards every
//     machine's cached plans, not only the caller's.
package plan

import (
	"slices"
	"sync/atomic"
)

// Drift thresholds for feedback invalidation: an op's observed selectivity
// must differ from the cached plan's estimate by more than driftFactor in
// either direction, over at least driftMinRows observed input rows, before
// the plan is invalidated. The floor keeps one freak row from thrashing the
// cache; the factor is generous because a mis-ordered segment costs at most
// the ratio between the orders, while a re-plan costs O(ops²) every time.
const (
	driftFactor  = 8.0
	driftMinRows = 64
)

// AbsentClass is the class-vector entry of a relation that does not exist;
// every present relation's class, bits.Len of its size, is below it.
const AbsentClass uint8 = 0xff

// CacheStats counts prepared-plan cache outcomes. Hits served a cached
// plan; Misses planned fresh because no cached plan covered the current
// classes (first execution, or a cardinality-class change); Invalidations
// dropped a covering plan because observed selectivities drifted past the
// threshold (the re-plan that follows is counted only as an invalidation,
// not also a miss).
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// PlanSlot is the prepared-plan cache line of one statement or condition.
type PlanSlot struct {
	// refs lists the statically named relations the statement reads or
	// writes — the relations whose cardinality classes form the vector.
	// Computed on first use; two racing first uses compute equal lists.
	refs atomic.Pointer[[]RelRef]
	// plans holds two plans, newest first; each records its own epoch and
	// class intervals.
	plans [2]atomic.Pointer[PhysPlan]
}

// Slot returns the statement's cache line.
func (st *Stmt) Slot() *PlanSlot {
	if st.slot.refs.Load() == nil {
		refs := stmtRefs(st)
		st.slot.refs.Store(&refs)
	}
	return &st.slot
}

// Slot returns the condition's cache line.
func (c *Cond) Slot() *PlanSlot {
	if c.slot.refs.Load() == nil {
		refs := stepsRefs(nil, c.Steps)
		c.slot.refs.Store(&refs)
	}
	return &c.slot
}

// Refs lists the relations whose cardinality classes select this slot's
// plans.
func (s *PlanSlot) Refs() []RelRef { return *s.refs.Load() }

// Lookup returns a cached plan valid for the epoch and class vector, or
// nil, counting the outcome in stats. No covering plan counts as a miss; a
// covering plan whose estimates drifted from the profile's observed
// selectivities (prof may be nil: conditions carry no profile) is dropped
// and counted as an invalidation. Allocation-free on every path.
func (s *PlanSlot) Lookup(epoch uint64, classes []uint8, prof *StmtProfile, stats *CacheStats) *PhysPlan {
	for i := range s.plans {
		pp := s.plans[i].Load()
		if pp == nil || !pp.covers(epoch, classes) {
			continue
		}
		if planDrifted(pp.Steps, prof) {
			s.plans[i].CompareAndSwap(pp, nil)
			stats.Invalidations++
			return nil
		}
		stats.Hits++
		return pp
	}
	stats.Misses++
	return nil
}

// Store caches a freshly built plan for the epoch and class vector. If a
// way holds a plan of the same shape under the same epoch, pp replaces it
// with the union of both interval boxes; otherwise pp becomes the newest
// of the slot's two plans and the previous newest the older. The plan
// must not change afterwards: other machines may already be executing it.
func (s *PlanSlot) Store(epoch uint64, classes []uint8, pp *PhysPlan) {
	pp.epoch, pp.lo, pp.hi = epoch, slices.Clone(classes), slices.Clone(classes)
	for i := range s.plans {
		if old := s.plans[i].Load(); old != nil && pp.widen(old) {
			s.plans[i].Store(pp)
			return
		}
	}
	if old := s.plans[0].Swap(pp); old != nil {
		s.plans[1].Store(old)
	}
}

// covers reports whether the plan may serve the epoch and class vector.
func (pp *PhysPlan) covers(epoch uint64, classes []uint8) bool {
	if pp.epoch != epoch || len(classes) != len(pp.lo) {
		return false
	}
	for i, c := range classes {
		if c < pp.lo[i] || c > pp.hi[i] {
			return false
		}
	}
	return true
}

// widen stretches the not yet stored pp's interval box over old's when
// both are plans of one shape under one epoch and no input is absent for
// one and present for the other; it reports whether it did.
func (pp *PhysPlan) widen(old *PhysPlan) bool {
	if old.epoch != pp.epoch || !sameShape(old.Steps, pp.Steps) {
		return false
	}
	for i := range pp.lo {
		if (pp.lo[i] == AbsentClass) != (old.lo[i] == AbsentClass) {
			return false
		}
	}
	for i := range pp.lo {
		pp.lo[i] = min(pp.lo[i], old.lo[i])
		pp.hi[i] = max(pp.hi[i], old.hi[i])
	}
	return true
}

// sameShape reports whether two plans of one statement run the same ops
// per step, in the same order, with the same access paths.
func sameShape(a, b []PhysStep) bool {
	return slices.EqualFunc(a, b, func(x, y PhysStep) bool {
		return slices.EqualFunc(x.Ops, y.Ops, func(o, p PhysOp) bool {
			return o.LogIdx == p.LogIdx && o.Access == p.Access
		})
	})
}

// Epoch returns the program's plan epoch, which every cached plan records.
func (p *Program) Epoch() uint64 { return p.epoch.Load() }

// ResetPlans makes every cached plan of the program stale: the next run of
// each statement, on any machine, plans fresh.
func (p *Program) ResetPlans() { p.epoch.Add(1) }

// planDrifted reports whether any cached op's estimated selectivity
// disagrees with the profile's observed ratio by more than driftFactor,
// over at least driftMinRows input rows measured under the same bound
// mask. The small additive epsilon keeps a zero on either side from
// triggering on noise alone.
func planDrifted(steps []PhysStep, prof *StmtProfile) bool {
	if prof == nil {
		return false
	}
	const eps = 1e-3
	for k := range steps {
		if k >= len(prof.Steps) {
			break
		}
		ops := prof.Steps[k].Ops
		for i := range steps[k].Ops {
			po := &steps[k].Ops[i]
			if po.LogIdx >= len(ops) {
				continue
			}
			op := ops[po.LogIdx]
			if op.In < driftMinRows || op.Mask != OpMask(po.Op) {
				continue
			}
			obs := float64(op.Out) / float64(op.In)
			if obs > po.Sel*driftFactor+eps || po.Sel > obs*driftFactor+eps {
				return true
			}
		}
	}
	return false
}

// stmtRefs collects the statically named relations a statement touches:
// every ground Match target in its steps plus the (ground) head. Computed
// relation names resolve per row and have no class; they simply do not
// contribute to the class vector — their plans already use default
// estimates.
func stmtRefs(st *Stmt) []RelRef {
	refs := stepsRefs(nil, st.Steps)
	if st.Head.Ref.Name.IsGround() {
		refs = append(refs, st.Head.Ref)
	}
	return refs
}

// stepsRefs appends the ground relations the steps' pipes read to refs.
func stepsRefs(refs []RelRef, steps []Step) []RelRef {
	for k := range steps {
		for _, op := range steps[k].Pipe {
			if ref, ok := opRel(op); ok && ref.Name.IsGround() {
				refs = append(refs, ref)
			}
		}
	}
	return refs
}
