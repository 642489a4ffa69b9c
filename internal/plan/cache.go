// Prepared-plan cache. Physical planning re-derives a PhysPlan on every
// statement execution so op orders track live statistics — but for the
// repeated-query hot path (the same small statement executed thousands of
// times, or a repeat loop in steady state) the statistics rarely change,
// and the O(ops²) greedy reorder plus the op clones and hint slices it
// allocates dominate the execution itself. PlanCache keeps the last
// physical plan per statement, keyed by (statement identity, cardinality-
// class signature of the referenced relations, bound-variable mask
// signature), and serves it back allocation-free while the key matches.
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
//     re-plan (an invalidation) that bakes the observed ratios in.
package plan

import "gluenail/internal/term"

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

// cacheEntry is the cache line of one statement or condition.
type cacheEntry struct {
	// refs lists the statically named relations the cached object reads or
	// writes — the relations whose cardinality classes form the cache key.
	// Computed once per statement (the list is a compile-time property).
	refs []RelRef
	// boundSig folds the bound-register sets of every step (the
	// bound-variable mask component of the cache key). It is determined by
	// the compiled statement and so constant per entry; it is part of the
	// stored signature defensively, documenting that a plan is only valid
	// for the binding pattern it was derived under.
	boundSig uint64
	// sig is the full key the cached plan was stored under: boundSig
	// combined with the class signature supplied by the executor.
	sig uint64
	// plan is the cached statement plan; steps the cached condition
	// segments. Exactly one is set (entries are keyed by *Stmt or *Cond).
	plan  *PhysPlan
	steps []PhysStep
}

// PlanCache caches physical plans per statement identity. It is owned by
// one executor and touched only between statements, on the executing
// goroutine — the same single-threaded contract as the profile maps.
type PlanCache struct {
	entries map[any]*cacheEntry
	stats   CacheStats
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[any]*cacheEntry)}
}

// Reset drops every cached plan and zeroes the counters (EXPLAIN ANALYZE
// measures exactly one run; profile resets drop the feedback the drift
// check compares against, so the plans go with it).
func (c *PlanCache) Reset() {
	c.entries = make(map[any]*cacheEntry)
	c.stats = CacheStats{}
}

// Stats returns a snapshot of the hit/miss/invalidation counters.
func (c *PlanCache) Stats() CacheStats { return c.stats }

// StmtEntry returns the statement's cache line, creating it (with its
// relation references and bound signature) on first sight. The executor
// resolves the refs to cardinality classes before calling Lookup.
func (c *PlanCache) StmtEntry(st *Stmt) *cacheEntry {
	e := c.entries[st]
	if e == nil {
		e = &cacheEntry{refs: stmtRefs(st), boundSig: stepsBoundSig(st.Steps)}
		c.entries[st] = e
	}
	return e
}

// CondEntry is StmtEntry for until-conditions.
func (c *PlanCache) CondEntry(cond *Cond) *cacheEntry {
	e := c.entries[cond]
	if e == nil {
		e = &cacheEntry{refs: stepsRefs(nil, cond.Steps), boundSig: stepsBoundSig(cond.Steps)}
		c.entries[cond] = e
	}
	return e
}

// Refs lists the relations whose cardinality classes key this entry.
func (e *cacheEntry) Refs() []RelRef { return e.refs }

// Lookup returns the cached statement plan for the class signature, or nil.
// A missing or key-mismatched plan counts as a miss; a key-valid plan whose
// estimates drifted from the profile's observed selectivities is dropped
// and counted as an invalidation. Allocation-free on every path.
func (c *PlanCache) Lookup(e *cacheEntry, classSig uint64, prof *StmtProfile) *PhysPlan {
	if e.plan == nil || e.sig != combineSig(e.boundSig, classSig) {
		c.stats.Misses++
		return nil
	}
	if planDrifted(e.plan.Steps, prof) {
		e.plan = nil
		c.stats.Invalidations++
		return nil
	}
	c.stats.Hits++
	return e.plan
}

// Store caches a statement plan under the class signature.
func (c *PlanCache) Store(e *cacheEntry, classSig uint64, pp *PhysPlan) {
	e.plan, e.steps = pp, nil
	e.sig = combineSig(e.boundSig, classSig)
}

// LookupSteps returns the cached condition segments for the class
// signature, or nil. Conditions carry no profile, so they invalidate on
// class changes only.
func (c *PlanCache) LookupSteps(e *cacheEntry, classSig uint64) []PhysStep {
	if e.steps == nil || e.sig != combineSig(e.boundSig, classSig) {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	return e.steps
}

// StoreSteps caches condition segments under the class signature.
func (c *PlanCache) StoreSteps(e *cacheEntry, classSig uint64, steps []PhysStep) {
	e.steps, e.plan = steps, nil
	e.sig = combineSig(e.boundSig, classSig)
}

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

// combineSig folds the constant bound signature into the executor's class
// signature (splitmix-style finalization via term's hash fold).
func combineSig(boundSig, classSig uint64) uint64 {
	return SigFold(SigFold(term.HashSeed, boundSig), classSig)
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

// stepsBoundSig folds every step's bound-in register set into a signature:
// the bound-variable mask component of the cache key. It is fixed by
// compilation, so per compiled statement it never varies — it exists to
// make the key's validity conditions explicit and future-proof against
// plans being shared across statements.
func stepsBoundSig(steps []Step) uint64 {
	sig := term.HashSeed
	for k := range steps {
		sig = SigFold(sig, uint64(len(steps[k].BoundIn)))
		for _, r := range steps[k].BoundIn {
			sig = SigFold(sig, uint64(r))
		}
	}
	return sig
}
