// Prepared-plan cache. Physical planning re-derives a PhysPlan on every
// statement execution so op orders track live statistics — but for the
// repeated-query hot path (the same small statement executed thousands of
// times, or a repeat loop in steady state) the statistics rarely change,
// and the O(ops²) greedy reorder plus the op clones and hint slices it
// allocates dominate the execution itself. Every compiled Stmt and Cond
// therefore carries a PlanSlot holding its last physical plan, keyed by the
// cardinality-class signature of the referenced relations folded with the
// program's plan epoch, and served back allocation-free while the key
// matches.
//
// The slot lives on the compiled statement, not on an executor: every
// machine running the program — the live one and each snapshot session's —
// reads and fills the same slots, so a statement planned once is planned
// for every session. A plan is immutable once stored (executors only read
// it), so sharing needs no lock: each way of the slot is an atomic
// pointer. Each machine keeps its own hit/miss/invalidation counters
// (CacheStats).
//
// Machines on one program can still disagree on a key: a session holding
// an old snapshot reads smaller relations than the live machine once an
// input crosses a power of two. The slot therefore keeps the two most
// recently stored plans, so two such machines each keep hitting their own
// plan instead of evicting each other's on every alternation. A third key
// evicts the older of the two.
//
// A stale plan is never wrong — any runnable op order yields the same
// result multiset (see the package comment in physical.go) — only possibly
// slow, so the cache can afford coarse invalidation:
//
//   - the class signature folds each referenced relation's cardinality
//     class, bits.Len(Len()), so a plan is dropped (a miss) once any
//     input's size crosses a power of two since planning. The key is a
//     pure function of the current sizes: a relation cleared and refilled
//     to the same class — a repeat loop's delta and scratch relations —
//     keeps its plans. There is no hysteresis, so a relation hovering
//     across a power of two re-plans at each crossing;
//   - executor selectivity feedback is checked against the cached plan's
//     estimates on every hit, and a per-op drift past driftFactor forces a
//     re-plan (an invalidation) that bakes the observed ratios in. Two
//     machines whose feedback disagrees that much replace each other's
//     plans; each replacement is still a correct plan;
//   - ResetPlans bumps the program's plan epoch, which is folded into every
//     key, so the next run of each statement plans fresh (EXPLAIN ANALYZE)
//     unless another machine re-planned it first under the new epoch. The
//     bump discards every machine's cached plans, not only the caller's.
package plan

import "sync/atomic"

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

// CacheStats counts prepared-plan cache outcomes. Hits served a cached
// plan; Misses planned fresh because no plan was cached under the current
// key (first execution, or a cardinality-class change); Invalidations
// dropped a key-valid plan because observed selectivities drifted past the
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
	// writes — the relations whose cardinality classes form the key.
	// Computed on first use; two racing first uses compute equal lists.
	refs atomic.Pointer[[]RelRef]
	// plans holds the two most recently stored plans, newest first; each
	// plan's key is its own key field.
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

// Refs lists the relations whose cardinality classes key this slot.
func (s *PlanSlot) Refs() []RelRef { return *s.refs.Load() }

// Lookup returns the cached plan for key, or nil, counting the outcome in
// stats. No plan under key counts as a miss; a key-valid plan whose
// estimates drifted from the profile's observed selectivities (prof may be
// nil: conditions carry no profile) is dropped and counted as an
// invalidation. Allocation-free on every path.
func (s *PlanSlot) Lookup(key uint64, prof *StmtProfile, stats *CacheStats) *PhysPlan {
	for i := range s.plans {
		pp := s.plans[i].Load()
		if pp == nil || pp.key != key {
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

// Store caches a freshly built plan under key as the newest of the slot's
// two plans; the previous newest becomes the older unless it had the same
// key. The plan must not change afterwards: other machines may already be
// executing it.
func (s *PlanSlot) Store(key uint64, pp *PhysPlan) {
	pp.key = key
	if old := s.plans[0].Swap(pp); old != nil && old.key != key {
		s.plans[1].Store(old)
	}
}

// PlanKey folds the program's plan epoch into an executor's class
// signature, giving the key a plan is cached under.
func (p *Program) PlanKey(classSig uint64) uint64 {
	return SigFold(classSig, p.epoch.Load())
}

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

// SigFold mixes one 64-bit component into a signature. Exposed so the
// executor can fold relation cardinality classes with the same function the
// cache uses internally (FNV-1a's 64-bit prime; the inputs are small
// integers, so the mixing only needs to separate small-integer sequences).
func SigFold(sig, v uint64) uint64 {
	return (sig ^ v) * 1099511628211
}

// stmtRefs collects the statically named relations a statement touches:
// every ground Match target in its steps plus the (ground) head. Computed
// relation names resolve per row and cannot be keyed; they simply do not
// contribute to the signature — their plans already use default estimates.
func stmtRefs(st *Stmt) []RelRef {
	refs := stepsRefs(nil, st.Steps)
	if st.Head.Ref.Name.IsGround() {
		refs = append(refs, st.Head.Ref)
	}
	return refs
}

// stepsRefs appends the ground Match targets of the steps' pipes to refs.
func stepsRefs(refs []RelRef, steps []Step) []RelRef {
	for k := range steps {
		for _, op := range steps[k].Pipe {
			if m, ok := op.(*Match); ok && m.Rel.Name.IsGround() {
				refs = append(refs, m.Rel)
			}
		}
	}
	return refs
}
