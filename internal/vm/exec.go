package vm

import (
	"fmt"
	"sync/atomic"

	"gluenail/internal/ast"
	"gluenail/internal/hashtab"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

func (f *frame) execStmt(st *plan.Stmt) error {
	atomic.AddInt64(&f.m.Stats.StmtsExecuted, 1)
	// Track the active statement for governor errors and panic
	// containment. Restored only on success — a restore during panic
	// unwinding (a defer) would erase the label before the recover at the
	// CallProcContext boundary reads it, and on the error path the failing
	// statement is exactly the right label to keep.
	prevProc, prevStmt := f.m.curProc, f.m.curStmt
	f.m.curProc, f.m.curStmt = f.proc.ID, st.Label
	if mv := st.Move; mv != nil && (!mv.In || f.rels[plan.SlotIn].Len() > 0) {
		if err := f.move(st, mv); err != nil {
			return fmt.Errorf("statement %q: %w", st.Label, err)
		}
		f.m.curProc, f.m.curStmt = prevProc, prevStmt
		return nil
	}
	// Plan or reuse: planning is O(ops²) over live statistics, so repeat
	// iterations adapt their op order as semi-naive deltas shrink and
	// observed selectivities feed the cost model — but the prepared-plan
	// cache (plancache.go) serves the previous plan back whenever the
	// referenced relations' cardinality classes and the observed
	// selectivities still match, so the repeated-query hot path and a
	// repeat loop's body skip the reorder and its op clones entirely.
	prof := f.m.profileFor(st)
	pp := f.stmtPlan(st, prof)
	f.m.lastPhys[st] = pp
	prof.Execs++
	err := f.runSteps(st.NRegs, pp.Steps, prof, func(b *batchState) error {
		if f.m.Trace != nil {
			f.m.tracef("  [%s] %s -> %d row(s)", f.proc.ID, st.Label, b.active())
		}
		return f.applyHead(st, &pp.Steps[len(pp.Steps)-1], b)
	})
	if err != nil {
		return fmt.Errorf("statement %q: %w", st.Label, err)
	}
	f.m.curProc, f.m.curStmt = prevProc, prevStmt
	return nil
}

// unitIn is the input of a call with no bound arguments: one empty tuple.
// Callees copy their inputs, so every such call shares it.
var unitIn = []term.Tuple{{}}

// move runs a statement the def-use pass marked as a move (plan.Move): the
// target's slot takes the source relation, a dead frame relation or the
// forwarded call's return, and the source's slot takes the target's old
// relation (a callee's frame releases it). Relations scan in insertion
// order, so the target reads exactly as the copy would. An empty source
// only clears the target, as the ":=" would; a swap happens only where the
// copy would have changed both slots' versions before their next read, so
// the unchanged memory of the swapped relations is forgotten. A call's
// constant arguments lead the rows it hands over; the frame's return, the
// only target such a move has, records how many (f.lead).
func (f *frame) move(st *plan.Stmt, mv *plan.Move) error {
	atomic.AddInt64(&f.m.Stats.Moves, 1)
	t, prof := st.Head.Ref.Slot, f.m.profileFor(st)
	prof.Execs++
	take := func(src *storage.Rel) error {
		n := (*src).Len()
		prof.Moved += int64(n)
		if n == 0 {
			f.rels[t].Clear()
		} else {
			f.rels[t], *src = *src, f.rels[t]
			for site, seen := range f.unchanged {
				if seen.rel == f.rels[t] || seen.rel == *src {
					delete(f.unchanged, site)
				}
			}
		}
		if f.m.Trace != nil {
			f.m.tracef("  [%s] %s -> %d row(s)", f.proc.ID, st.Label, n)
		}
		f.returned = f.returned || st.Head.IsReturn
		return f.checkRelBudget(f.rels[t])
	}
	if mv.Call != nil {
		f.lead = len(mv.Input[0])
		return f.m.call(mv.Call.ProcID, mv.Input, func(callee *frame) error {
			return take(&callee.rels[plan.SlotReturn])
		})
	}
	return take(&f.rels[mv.Src])
}

func (f *frame) evalCond(c *plan.Cond) (found bool, err error) {
	if c.Deltas != nil {
		for _, d := range c.Deltas {
			if v := &f.views[d.Slot][0]; v.lo != v.hi {
				return false, nil
			}
		}
		return true, nil
	}
	err = f.runSteps(c.NRegs, f.condPlan(c), nil, func(b *batchState) error {
		found = b.active() > 0
		return nil
	})
	return found, err
}

// runSteps executes the pipeline segments over the supplementary relation,
// one batch from sup_0 = {ε} to the head: each segment's ops extend it,
// each break dedups it on the live registers (§9), and each barrier reads
// and extends it in place. It hands the statement's rows to consume once.
// Execution stops early when a supplementary relation becomes empty
// (§3.2), skipping any remaining side effects. prof (may be nil)
// accumulates per-op tuple counters. The batch's scratch is the
// statement's until it ends, across nested procedure calls too.
func (f *frame) runSteps(nregs int, steps []plan.PhysStep, prof *plan.StmtProfile, consume func(*batchState) error) error {
	scr := f.spare
	if f.spare = nil; scr == nil {
		scr = batchScratchPool.Get().(*batchScratch)
	}
	defer scr.put(f)
	b := scr.begin(nregs)
	var groupRegs []int // accumulated by group_by barriers (§3.3.1)
	for i := range steps {
		step := &steps[i]
		var sprof *plan.StepProfile
		if prof != nil && i < len(prof.Steps) {
			sprof = &prof.Steps[i]
		}
		if err := f.runSegment(b, step, sprof); err != nil {
			return err
		}
		if b.active() == 0 || i == len(steps)-1 && step.Step.Barrier == nil {
			break
		}
		if step.Step.Dedup {
			f.dedup(b, step.Step.LiveRegs)
		}
		if step.Step.Barrier != nil {
			atomic.AddInt64(&f.m.Stats.PipelineBreaks, 1)
			if err := f.applyBarrier(b, step.Step.Barrier, &groupRegs); err != nil {
				return err
			}
			if b.active() == 0 {
				break
			}
		}
	}
	return consume(b)
}

// runSegment runs a step's pipe ops over the batch on the batch kernels
// (batch.go). The pipelined strategy runs them back to back; the
// materialized baseline copies the live columns into a fresh level after
// every op but the last (the extra load and store per tuple of §9).
// Statically named relations are resolved once per segment, not per row —
// relations only change at barriers and heads, never inside a segment.
// The per-op vectors come from the statement's batch scratch.
func (f *frame) runSegment(b *batchState, step *plan.PhysStep, sprof *plan.StepProfile) error {
	ops := step.Ops
	if len(ops) == 0 {
		return nil
	}
	rels, have, cnt := b.scr.opVectors(len(ops))
	for i := range ops {
		if m, ok := ops[i].Op.(*plan.Match); ok && m.Rel.Name.IsGround() {
			rel, err := f.resolveRead(m.Rel, nil)
			if err != nil {
				return err
			}
			rels[i], have[i] = rel, true
		}
	}
	// cnt[i] counts tuples entering op i; cnt[len(ops)] counts segment
	// output. The flush attributes them to each op's logical index, so
	// feedback stays attached across re-orderings.
	defer func() {
		if sprof == nil {
			return
		}
		for j := range ops {
			if ops[j].LogIdx >= len(sprof.Ops) {
				continue
			}
			op := &sprof.Ops[ops[j].LogIdx]
			op.In += cnt[j]
			op.Out += cnt[j+1]
			op.Mask = plan.OpMask(ops[j].Op)
		}
	}()
	last := len(ops) - 1
	for i := range ops {
		cnt[i] += int64(b.active())
		if b.active() == 0 {
			return nil
		}
		if err := f.runOp(b, ops[i].Op, rels[i], have[i]); err != nil {
			return err
		}
		if i < last && !f.m.Materialized {
			continue
		}
		// The rows leave the segment (or, materialized, the op).
		n := b.active()
		if i == last {
			cnt[len(ops)] += int64(n)
		}
		if n == 0 {
			return nil
		}
		atomic.AddInt64(&f.m.Stats.TuplesMaterialized, int64(n))
		if err := f.m.pollGovernor(); err != nil {
			return err
		}
		if i < last {
			b.compact()
		}
	}
	return nil
}

// unbind zeroes the registers an op bound; the compiler guarantees they
// were unbound before the op ran, so zeroing restores the pre-op state
// without a snapshot.
func unbind(regs []term.Value, bind []int) {
	for _, r := range bind {
		regs[r] = term.Value{}
	}
}

// buildKey constructs the index-lookup key for the bound argument
// positions in *sk, reusing its backing array across the rows of one op
// (the per-row probe-key allocation used to dominate bound probes). Safe
// because the storage layer never retains a lookup key past Lookup, and
// only mask-selected slots of the key are ever read — an op's mask is
// fixed, so stale unselected slots from a previous row are never seen.
func buildKey(sk *term.Tuple, mask uint32, args []term.Pattern, regs []term.Value, arity int) (term.Tuple, error) {
	if mask == 0 {
		return nil, nil
	}
	var key term.Tuple
	if cap(*sk) >= arity {
		key = (*sk)[:arity]
	} else {
		key = make(term.Tuple, arity)
		*sk = key
	}
	for i := range args {
		if mask&(1<<uint(i)) != 0 {
			v, err := args[i].Build(regs)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
	}
	return key, nil
}

// matchArgs matches every pattern against the tuple, binding registers.
func matchArgs(args []term.Pattern, t term.Tuple, regs []term.Value) bool {
	for i := range args {
		if !args[i].Match(t[i], regs) {
			return false
		}
	}
	return true
}

// dynResolve finds the relation a HiLog predicate name denotes. With
// compile-time narrowing, simple names outside the candidate set are
// rejected immediately and the store is probed directly; the baseline
// searches every class linearly, the work the paper's compiler exists to
// avoid (§9).
func (f *frame) dynResolve(name term.Value, arity int, narrowed bool,
	cands map[string]bool) storage.Rel {
	atomic.AddInt64(&f.m.Stats.DynDispatches, 1)
	if name.Kind() == term.Str {
		n := name.Str()
		if narrowed && !cands[n] {
			return nil
		}
		// A frame relation — in, or a declared local — by its slot.
		if n == "in" && f.proc.Bound == arity {
			return f.rels[plan.SlotIn]
		}
		for i, l := range f.proc.Locals {
			if l.Name == n && l.Arity == arity {
				return f.rels[plan.SlotLocals+i]
			}
		}
	}
	if narrowed {
		rel, ok := f.m.EDB.Get(name, arity)
		if !ok {
			return nil
		}
		return rel
	}
	// Baseline: runtime dereferencing checks each class in turn.
	for _, rn := range f.m.EDB.Names() {
		if rn.Arity == arity && rn.Name.Equal(name) {
			rel, _ := f.m.EDB.Get(name, arity)
			return rel
		}
	}
	return nil
}

// dedup removes the active rows that repeat an earlier row on the live
// registers (§9: duplicate elimination at pipeline breaks), keeping the
// first occurrence of each in order: the selection becomes the groups'
// first rows.
func (f *frame) dedup(b *batchState, live []int) {
	reps := f.groups(b, live, nil)
	if removed := b.active() - len(reps); removed != 0 {
		atomic.AddInt64(&f.m.Stats.RowsDeduped, int64(removed))
	}
	if b.sel != nil {
		b.scr.putIdx(b.sel)
	}
	b.sel = reps
}

// headRow builds the head tuple of one row into the machine's scratch
// tuple. Relations copy the rows they keep, so one tuple serves every row
// of every statement; heads never nest (a head only writes relations).
func (m *Machine) headRow(args []term.Pattern, row []term.Value) (term.Tuple, error) {
	if cap(m.headTup) < len(args) {
		m.headTup = make(term.Tuple, len(args))
	}
	tup := m.headTup[:len(args)]
	for i := range args {
		v, err := args[i].Build(row)
		if err != nil {
			return nil, err
		}
		tup[i] = v
	}
	return tup, nil
}

// applyHeadRow applies the statement's assignment operator to one head
// tuple; a ":=" target was cleared before its first row. Applying
// "+=[key]" row by row is ModifyByKey's own order.
func (m *Machine) applyHeadRow(st *plan.Stmt, rel storage.Rel, tup term.Tuple) {
	switch st.Op {
	case ast.OpAssign, ast.OpInsert:
		rel.Insert(tup)
	case ast.OpDelete:
		rel.Delete(tup)
	case ast.OpModify:
		m.headOne[0] = tup
		rel.ModifyByKey(st.KeyMask, m.headOne[:])
	}
}

// applyHead applies the statement's assignment operator to the target
// relation(s), reading the live registers of the batch's rows. The
// target's hash table dedups the head: a repeated insert or delete changes
// nothing, but a repeated "+=[key]" row would re-insert itself, so that
// head dedups its rows first. A static head resolves its target up front:
// ":=" clears it even for an empty body, and grows it by the rows reaching
// it if they cannot repeat (or a barrier ended the body), else at most by
// what it held. A HiLog head resolves (and a ":=" clears) each computed
// name at its first row, through a pooled table on the name.
func (f *frame) applyHead(st *plan.Stmt, last *plan.PhysStep, b *batchState) error {
	live := last.Step.LiveRegs
	if st.Op == ast.OpModify && last.Step.Dedup && last.Step.Barrier == nil {
		f.dedup(b, live)
	}
	n, row, rf := b.active(), b.scr.rowBuf, b.filler(live)
	type target struct {
		name term.Value
		rel  storage.Rel
	}
	targets, static := make([]target, 0, 1), st.Head.Ref.Name.IsGround()
	if static {
		rel, err := f.resolveWrite(st.Head.Ref, nil)
		if err != nil {
			return err
		}
		if st.Op == ast.OpAssign {
			grow := rel.Len()
			if last.Step.Barrier != nil || b.distinct(last.Ops, live) {
				grow = n
			}
			rel.Clear()
			rel.Grow(min(n, grow))
		}
		targets = append(targets, target{rel: rel})
	}
	var names *hashtab.Table
	if !static {
		names = f.grabTable(n)
		defer f.releaseTable(names)
	}
	var name term.Value
	sameName := func(r int32) bool { return targets[r].name.Equal(name) }
	for k := 0; k < n; k++ {
		rf.fill(b.row(k), row)
		gi, found := int32(0), true
		if !static {
			var err error
			if name, err = st.Head.Ref.Name.Build(row); err != nil {
				return err
			}
			gi, found = names.FindOrAdd(name.Hash(), int32(len(targets)), sameName)
		}
		if !found {
			rel, err := f.resolveWrite(st.Head.Ref, row)
			if err != nil {
				return err
			}
			if st.Op == ast.OpAssign {
				rel.Clear()
			}
			targets = append(targets, target{name: name, rel: rel})
		}
		tup, err := f.m.headRow(st.Head.Args, row)
		if err != nil {
			return err
		}
		f.m.applyHeadRow(st, targets[gi].rel, tup)
	}
	for _, g := range targets {
		if err := f.checkRelBudget(g.rel); err != nil {
			return err
		}
	}
	if st.Head.IsReturn {
		f.returned = true
	}
	return nil
}
