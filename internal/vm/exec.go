package vm

import (
	"fmt"
	"sync/atomic"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// stmtState carries per-statement-execution state: the grouping registers
// accumulated by group_by barriers (§3.3.1).
type stmtState struct {
	groupRegs []int
}

func (f *frame) execStmt(st *plan.Stmt) error {
	atomic.AddInt64(&f.m.Stats.StmtsExecuted, 1)
	// Track the active statement for governor errors and panic
	// containment. Restored only on success — a restore during panic
	// unwinding (a defer) would erase the label before the recover at the
	// CallProcContext boundary reads it, and on the error path the failing
	// statement is exactly the right label to keep.
	prevProc, prevStmt := f.m.curProc, f.m.curStmt
	f.m.curProc, f.m.curStmt = f.proc.ID, st.Label
	// Plan or reuse: planning is O(ops²) over live statistics, so repeat
	// iterations adapt their op order as semi-naive deltas shrink and
	// observed selectivities feed the cost model — but the prepared-plan
	// cache (plancache.go) serves the previous plan back whenever the
	// referenced relations' stats epochs and the observed selectivities
	// still match, so the repeated-query hot path skips the reorder and
	// its op clones entirely.
	prof := f.m.profileFor(st)
	pp := f.stmtPlan(st, prof)
	f.m.lastPhys[st] = pp
	prof.Execs++
	rows, err := f.runSteps(st.NRegs, pp.Steps, prof)
	if err == nil {
		if f.m.Trace != nil {
			f.m.tracef("  [%s] %s -> %d row(s)", f.proc.ID, st.Label, len(rows))
		}
		err = f.applyHead(st, rows)
	}
	if err != nil {
		return fmt.Errorf("statement %q: %w", st.Label, err)
	}
	f.m.curProc, f.m.curStmt = prevProc, prevStmt
	return nil
}

func (f *frame) evalCond(c *plan.Cond) (bool, error) {
	psteps := f.condPlan(c)
	rows, err := f.runSteps(c.NRegs, psteps, nil)
	if err != nil {
		return false, err
	}
	return len(rows) > 0, nil
}

// runSteps executes the pipeline segments over the supplementary relation,
// starting from sup_0 = {ε}. Execution stops early when a supplementary
// relation becomes empty (§3.2), skipping any remaining side effects.
// prof (may be nil) accumulates per-op tuple counters.
func (f *frame) runSteps(nregs int, steps []plan.PhysStep, prof *plan.StmtProfile) ([][]term.Value, error) {
	rows := [][]term.Value{make([]term.Value, nregs)}
	state := &stmtState{}
	for i := range steps {
		step := &steps[i]
		var sprof *plan.StepProfile
		if prof != nil && i < len(prof.Steps) {
			sprof = &prof.Steps[i]
		}
		var err error
		rows, err = f.runPipe(step, rows, sprof)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, nil
		}
		if step.Step.Dedup {
			rows = f.dedupRows(rows, step.Step.LiveRegs)
		}
		if step.Step.Barrier != nil {
			atomic.AddInt64(&f.m.Stats.PipelineBreaks, 1)
			rows, err = f.applyBarrier(step.Step.Barrier, rows, state)
			if err != nil {
				return nil, err
			}
			if len(rows) == 0 {
				return nil, nil
			}
		}
	}
	return rows, nil
}

func cloneRow(row []term.Value) []term.Value {
	cp := make([]term.Value, len(row))
	copy(cp, row)
	return cp
}

// runPipe streams rows through the segment's operators. The pipelined
// strategy runs the batch kernels (batch.go), which copy a row's registers
// only at the segment end; the materialized baseline stores the full row
// set after every operator (the extra load and store per tuple of §9).
// Statically named relations are resolved once per segment, not per row —
// relations only change at barriers and heads, never inside a segment.
func (f *frame) runPipe(step *plan.PhysStep, rows [][]term.Value, sprof *plan.StepProfile) ([][]term.Value, error) {
	pops := step.Ops
	if len(pops) == 0 {
		return rows, nil
	}
	ops := make([]plan.PipeOp, len(pops))
	for i := range pops {
		ops[i] = pops[i].Op
	}
	rels := make([]storage.Rel, len(ops))
	have := make([]bool, len(ops))
	for i, op := range ops {
		if m, ok := op.(*plan.Match); ok && m.Rel.Name.IsGround() {
			rel, err := f.resolveRead(m.Rel, nil)
			if err != nil {
				return nil, err
			}
			rels[i], have[i] = rel, true
		}
	}
	// cnt[i] counts tuples entering op i; cnt[len(ops)] counts segment
	// output. The flush attributes them to each op's logical index, so
	// feedback stays attached across re-orderings.
	cnt := make([]int64, len(ops)+1)
	defer func() {
		if sprof == nil {
			return
		}
		for j := range pops {
			if pops[j].LogIdx >= len(sprof.Ops) {
				continue
			}
			op := &sprof.Ops[pops[j].LogIdx]
			op.In += cnt[j]
			op.Out += cnt[j+1]
			op.Mask = plan.OpMask(pops[j].Op)
		}
	}()
	if f.m.Materialized {
		cur := rows
		for i, op := range ops {
			cnt[i] += int64(len(cur))
			out, err := f.materializeOp(op, rels[i], have[i], cur)
			if err != nil {
				return nil, err
			}
			cur = out
			if len(cur) == 0 {
				return nil, nil
			}
		}
		cnt[len(ops)] += int64(len(cur))
		return cur, nil
	}
	return f.runPipeBatch(ops, rels, have, rows, cnt)
}

// materializeOp runs one streaming op over the whole row set, materializing
// its output: one operator step of the materialized baseline.
func (f *frame) materializeOp(op plan.PipeOp, rel storage.Rel, haveRel bool,
	rows [][]term.Value) ([][]term.Value, error) {
	var out [][]term.Value
	var sk term.Tuple
	for _, row := range rows {
		err := f.applyPipeOp(op, rel, haveRel, &sk, row, func() error {
			out = append(out, cloneRow(row))
			atomic.AddInt64(&f.m.Stats.TuplesMaterialized, 1)
			if len(out)&(govCheckRows-1) == 0 {
				return f.m.pollGovernor()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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

// scanRel iterates matching tuples of rel, calling emit with the op's
// registers bound per tuple; the op's bind set is zeroed between tuples
// and before returning.
func (f *frame) scanRel(rel storage.Rel, sk *term.Tuple, bind []int, mask uint32,
	args []term.Pattern, regs []term.Value, emit func() error) error {
	if rel == nil {
		return nil
	}
	key, err := buildKey(sk, mask, args, regs, rel.Arity())
	if err != nil {
		return err
	}
	var emitErr error
	rel.Lookup(mask, key, func(t term.Tuple) bool {
		if matchArgs(args, t, regs) {
			if err := emit(); err != nil {
				emitErr = err
				unbind(regs, bind)
				return false
			}
		}
		unbind(regs, bind)
		return true
	})
	return emitErr
}

// existsIn reports whether any tuple of rel matches the (fully bound or
// wildcarded) patterns; negated ops have no unbound registers, so there is
// nothing to restore.
func (f *frame) existsIn(rel storage.Rel, sk *term.Tuple, mask uint32,
	args []term.Pattern, regs []term.Value) (bool, error) {
	if rel == nil {
		return false, nil
	}
	key, err := buildKey(sk, mask, args, regs, rel.Arity())
	if err != nil {
		return false, err
	}
	if mask != 0 && mask == (uint32(1)<<uint(rel.Arity()))-1 {
		// Fully bound probe: membership is the whole question, so ask it
		// directly — Contains is each engine's cheapest path (the disk
		// engine answers most misses from a per-run bloom filter, with no
		// I/O at all).
		return rel.Contains(key), nil
	}
	found := false
	rel.Lookup(mask, key, func(t term.Tuple) bool {
		if matchArgs(args, t, regs) {
			found = true
			return false
		}
		return true
	})
	return found, nil
}

// applyPipeOp runs one streaming operator on one row. rel/haveRel carry a
// segment-level pre-resolved relation for statically named matches.
func (f *frame) applyPipeOp(op plan.PipeOp, rel storage.Rel, haveRel bool,
	sk *term.Tuple, regs []term.Value, emit func() error) error {
	switch op := op.(type) {
	case *plan.Match:
		if !haveRel {
			var err error
			rel, err = f.resolveRead(op.Rel, regs)
			if err != nil {
				return err
			}
		}
		if op.Negated {
			found, err := f.existsIn(rel, sk, op.BoundMask, op.Args, regs)
			if err != nil {
				return err
			}
			if !found {
				return emit()
			}
			return nil
		}
		return f.scanRel(rel, sk, op.Bind, op.BoundMask, op.Args, regs, emit)
	case *plan.DynMatch:
		name, err := op.Pred.Build(regs)
		if err != nil {
			return err
		}
		rel := f.dynResolve(name, op.Arity, op.Narrowed, op.Candidates)
		if op.Negated {
			found, err := f.existsIn(rel, sk, op.BoundMask, op.Args, regs)
			if err != nil {
				return err
			}
			if !found {
				return emit()
			}
			return nil
		}
		return f.scanRel(rel, sk, op.Bind, op.BoundMask, op.Args, regs, emit)
	case *plan.Compare:
		l, err := evalExpr(op.L, regs)
		if err != nil {
			return err
		}
		r, err := evalExpr(op.R, regs)
		if err != nil {
			return err
		}
		ok, err := compareValues(op.Op, l, r)
		if err != nil {
			return err
		}
		if ok {
			return emit()
		}
		return nil
	case *plan.MatchBind:
		v, err := evalExpr(op.E, regs)
		if err != nil {
			return err
		}
		if op.Pat.Match(v, regs) {
			if err := emit(); err != nil {
				unbind(regs, op.Bind)
				return err
			}
		}
		unbind(regs, op.Bind)
		return nil
	}
	return fmt.Errorf("vm: unknown pipe op %T", op)
}

// dynResolve finds the relation a HiLog predicate name denotes. With
// compile-time narrowing, simple names outside the candidate set are
// rejected immediately and the store is probed directly; the baseline
// searches every class linearly, the work the paper's compiler exists to
// avoid (§9).
func (f *frame) dynResolve(name term.Value, arity int, narrowed bool,
	cands map[string]bool) storage.Rel {
	atomic.AddInt64(&f.m.Stats.DynDispatches, 1)
	if narrowed {
		if name.Kind() == term.Str {
			n := name.Str()
			if !cands[n] {
				return nil
			}
			if n == "in" && f.inRel.Arity() == arity {
				return f.inRel
			}
			if r, ok := f.locals[n]; ok && r.Arity() == arity {
				return r
			}
		}
		rel, ok := f.m.EDB.Get(name, arity)
		if !ok {
			return nil
		}
		return rel
	}
	// Baseline: runtime dereferencing checks each class in turn.
	if name.Kind() == term.Str {
		n := name.Str()
		if n == "in" && f.inRel.Arity() == arity {
			return f.inRel
		}
		for lname, r := range f.locals {
			if lname == n && r.Arity() == arity {
				return r
			}
		}
	}
	for _, rn := range f.m.EDB.Names() {
		if rn.Arity == arity && rn.Name.Equal(name) {
			rel, _ := f.m.EDB.Get(name, arity)
			return rel
		}
	}
	return nil
}

// dedupRows removes rows that agree on the live registers (§9: duplicate
// elimination at pipeline breaks), keeping the first occurrence of each
// key in input order. One bulk pass hashes every row's live registers into
// a pooled vector; a second probes a pooled open-addressing table with
// those hashes and compares rows directly on collision. No key bytes are
// materialized.
func (f *frame) dedupRows(rows [][]term.Value, live []int) [][]term.Value {
	if len(rows) < 2 {
		return rows
	}
	hashes := f.grabHashes(len(rows))
	for i := range rows {
		hashes[i] = rowHashLive(rows[i], live)
	}
	t := f.grabTable(len(rows))
	out := rows[:0]
	var cand []term.Value
	eq := func(r int32) bool { return rowsEqualLive(out[r], cand, live) }
	var removed int64
	for i, row := range rows {
		cand = row
		if _, found := t.findOrAdd(hashes[i], int32(len(out)), eq); found {
			removed++
			continue
		}
		out = append(out, row)
	}
	f.releaseTable(t)
	f.releaseHashes(hashes)
	if removed != 0 {
		atomic.AddInt64(&f.m.Stats.RowsDeduped, removed)
	}
	return out
}

// buildHeadTuple builds the head tuple for one row.
func buildHeadTuple(st *plan.Stmt, row []term.Value) (term.Tuple, error) {
	tup := make(term.Tuple, len(st.Head.Args))
	for i := range st.Head.Args {
		v, err := st.Head.Args[i].Build(row)
		if err != nil {
			return nil, err
		}
		tup[i] = v
	}
	return tup, nil
}

// applyHeadOp applies the statement's assignment operator to one target
// relation.
func applyHeadOp(st *plan.Stmt, rel storage.Rel, tuples []term.Tuple) {
	switch st.Op {
	case ast.OpAssign:
		rel.Clear()
		for _, t := range tuples {
			rel.Insert(t)
		}
	case ast.OpInsert:
		for _, t := range tuples {
			rel.Insert(t)
		}
	case ast.OpDelete:
		for _, t := range tuples {
			rel.Delete(t)
		}
	case ast.OpModify:
		rel.ModifyByKey(st.KeyMask, tuples)
	}
}

// applyHead applies the statement's assignment operator to the target
// relation(s). HiLog heads may address several relations in one statement;
// rows are grouped by computed relation name. A statically named head — by
// far the common case — resolves its single target once per statement
// execution and skips grouping entirely; computed names group through a
// pooled hash table on the name value, so no per-row name key is built.
func (f *frame) applyHead(st *plan.Stmt, rows [][]term.Value) error {
	if st.Head.Ref.Name.IsGround() {
		// One static target for the whole statement: it participates even
		// with an empty body (":=" clears it).
		rel, err := f.resolveWrite(st.Head.Ref, nil)
		if err != nil {
			return err
		}
		var tuples []term.Tuple
		if len(rows) > 0 {
			tuples = make([]term.Tuple, 0, len(rows))
		}
		for _, row := range rows {
			tup, err := buildHeadTuple(st, row)
			if err != nil {
				return err
			}
			tuples = append(tuples, tup)
		}
		applyHeadOp(st, rel, tuples)
		if err := f.checkRelBudget(rel); err != nil {
			return err
		}
		if st.Head.IsReturn {
			f.returned = true
		}
		return nil
	}
	type target struct {
		name   term.Value
		rel    storage.Rel
		tuples []term.Tuple
	}
	var targets []*target
	t := f.grabTable(len(rows))
	var candName term.Value
	eq := func(r int32) bool { return targets[r].name.Equal(candName) }
	for _, row := range rows {
		name, err := st.Head.Ref.Name.Build(row)
		if err != nil {
			return err
		}
		candName = name
		var g *target
		if gi, found := t.findOrAdd(name.Hash(), int32(len(targets)), eq); found {
			g = targets[gi]
		} else {
			rel, err := f.resolveWrite(st.Head.Ref, row)
			if err != nil {
				return err
			}
			g = &target{name: name, rel: rel}
			targets = append(targets, g)
		}
		tup, err := buildHeadTuple(st, row)
		if err != nil {
			return err
		}
		g.tuples = append(g.tuples, tup)
	}
	f.releaseTable(t)
	for _, g := range targets {
		applyHeadOp(st, g.rel, g.tuples)
		if err := f.checkRelBudget(g.rel); err != nil {
			return err
		}
	}
	if st.Head.IsReturn {
		f.returned = true
	}
	return nil
}
