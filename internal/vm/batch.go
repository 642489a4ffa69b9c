// Vectorized batch kernels: the supplementary relation of §3.2. A
// statement's rows sup_0 ... sup_n are one batch, a column-major register
// file that every op runs over op-at-a-time instead of interpreting the
// operator pipeline once per tuple: filters refine a selection vector
// without moving a byte of row data, and expansions (index probes, scans,
// and the call barriers' joins) append only their newly bound registers
// column-wise plus a source-row index.
//
// Columns are materialized lazily. An expansion does not gather the
// pass-through columns into the new row space; it records a lineage
// vector (new row -> source row) and leaves every earlier column at the
// level that produced it. An op that reads a register materializes just
// that column in the current row space (memoized). The batch lives from
// the seed row to the head: a barrier reads it and extends it in place (a
// call joins its results back as a new level, an aggregate lists its rows
// group by group, a dedup or a check refines the selection), and the head
// reads its registers through the lineage maps and copies each derived
// row once, into its target. Nothing else decides the relation's format.
//
// Output order is the nested-loop order of §9. Depth-first
// tuple-at-a-time evaluation emits results in lexicographic (row index,
// op-0 emission index, op-1 emission index, ...) order; breadth-first
// op-at-a-time processes every op over the full batch in that same source
// order, so a consumer enumerates exactly the same sequence. The
// materialized baseline runs these same kernels and copies the live
// columns into a fresh level after every op, so it produces that sequence
// too.
package vm

import (
	"fmt"
	"slices"
	"sync"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// batchScratch recycles working vectors across a statement: runSteps draws
// one per statement and returns it when the statement ends, so a nested
// procedure call draws its own. Every column, lineage vector, and
// selection map is dead once the head returns, so the vectors cycle
// through these freelists instead of churning the allocator once per op.
// Scratches are drawn from the frame's last one or from a sync.Pool
// shared by every machine in the process (concurrent snapshot sessions
// included); a statement owns its scratch until it returns it, so no
// locking is needed inside.
//
// Pooled value vectors are not cleared on release; they may pin the
// previous statement's values until overwritten, which is bounded by one
// batch of scratch and irrelevant next to the relations themselves.
type batchScratch struct {
	state      batchState
	vals       [][]term.Value
	idx        [][]int32
	colArrs    [][][]term.Value
	rowBuf     []term.Value
	regs, bind []int
	fillerCols [][]term.Value
	bindCols   [][]term.Value
	// Per-op vectors of the segment in flight (runSegment): pre-resolved
	// relations, whether each op has one, and the per-op tuple counters.
	rels []storage.Rel
	have []bool
	cnt  []int64
	// probe carries a match op's state into the storage callback; see
	// matchProbe.
	probe matchProbe
	// rows lists a callee's return rows (returnRows) through keepRowFn,
	// a method value bound once, like probe's.
	rows      []term.Tuple
	keepRowFn func(term.Tuple) bool
	// ins lists a call barrier's distinct inputs, rows of its slab.
	ins []term.Tuple
}

var batchScratchPool = sync.Pool{New: func() any {
	s := new(batchScratch)
	s.probe.emitFn, s.probe.existsFn = s.probe.emit, s.probe.exists
	s.keepRowFn = s.keepRow
	s.regs = make([]int, 0, 16)
	return s
}}

// begin readies the scratch's batch as sup_0 = {ε}: one row, no register
// bound.
func (s *batchScratch) begin(nregs int) *batchState {
	// The state shell lives in the scratch: its backing arrays (register
	// map, level list, lineage memos) carry over from the last statement.
	b := &s.state
	b.n, b.nregs, b.scr, b.sel = 1, nregs, s, nil
	if cap(b.where) < nregs {
		b.where = make([]int, nregs)
	}
	b.where = b.where[:nregs]
	for r := range b.where {
		b.where[r] = -1
	}
	b.levels = append(b.levels[:0], batchLevel{cols: s.grabColArr(nregs)})
	b.abs = append(b.abs[:0], nil)
	if cap(s.rowBuf) < nregs {
		s.rowBuf = make([]term.Value, nregs)
	}
	s.rowBuf = s.rowBuf[:nregs]
	clear(s.rowBuf)
	return b
}

// put releases the batch and keeps the scratch for f's next statement,
// first dropping the relation references of the last segment and the rows
// of the last callee, so a kept scratch pins no relation. A loop's
// statements then skip the pool, which the garbage collector empties;
// f's drop pools it.
func (s *batchScratch) put(f *frame) {
	s.state.release()
	clear(s.rels)
	clear(s.rows)
	s.rows = s.rows[:0]
	clear(s.ins[:cap(s.ins)])
	s.probe.f = nil
	f.spare = s
}

// returnRows lists the rows of a callee's return relation, in a header
// vector the scratch reuses, sized once by Len. The rows are the
// relation's own, valid while the callee's frame lives. The last
// callee's rows are forgotten first, so no header past the vector's
// length is ever set and put clears only what was listed.
func (s *batchScratch) returnRows(ret storage.Rel) []term.Tuple {
	clear(s.rows)
	s.rows = slices.Grow(s.rows[:0], ret.Len())
	ret.Scan(s.keepRowFn)
	return s.rows
}

func (s *batchScratch) keepRow(t term.Tuple) bool {
	s.rows = append(s.rows, t)
	return true
}

// opVectors returns the segment's per-op vectors for n ops, zeroed: the
// pre-resolved relations, their have flags, and n+1 tuple counters.
func (s *batchScratch) opVectors(n int) ([]storage.Rel, []bool, []int64) {
	if cap(s.cnt) < n+1 {
		s.rels = make([]storage.Rel, n)
		s.have = make([]bool, n)
		s.cnt = make([]int64, n+1)
	}
	rels, have, cnt := s.rels[:n], s.have[:n], s.cnt[:n+1]
	clear(rels)
	clear(have)
	clear(cnt)
	return rels, have, cnt
}

// grabBindCols returns one empty value vector per bind register, each with
// capacity for c values, in a column list the scratch reuses (pushLevel
// copies the vectors out, so the list itself is free again at once).
func (s *batchScratch) grabBindCols(n, c int) [][]term.Value {
	if cap(s.bindCols) < n {
		s.bindCols = make([][]term.Value, n)
	}
	cols := s.bindCols[:n]
	for k := range cols {
		cols[k] = s.grabValsCap(c)
	}
	return cols
}

// matchProbe is the state a match op's storage callback works on. Lookup
// takes its callback through the Rel interface, so a closure over locals
// would move them to the heap on every call; instead the state lives in
// the scratch and the callbacks are method values bound once, when the
// scratch is created.
type matchProbe struct {
	f      *frame
	args   []term.Pattern
	rowBuf []term.Value
	sk     term.Tuple // the probe key, reused across rows (buildKey)
	// Expansion state: the bind registers, their emitted columns, the
	// lineage vector, the current source row and the emission count.
	bind     []int
	bindCols [][]term.Value
	src      []int32
	cur      int32
	emitted  int64
	err      error
	found    bool // existence probes: a matching tuple was seen
	expand   bool
	emitFn   func(term.Tuple) bool
	existsFn func(term.Tuple) bool
	// yield is the callback of the join in flight: emitFn, or existsFn
	// for a negated one.
	yield func(term.Tuple) bool
}

// emit is the expansion callback: a matching tuple appends the op's bound
// registers column-wise plus the source row.
func (p *matchProbe) emit(t term.Tuple) bool {
	if matchArgs(p.args, t, p.rowBuf) {
		for k, reg := range p.bind {
			p.bindCols[k] = append(p.bindCols[k], p.rowBuf[reg])
		}
		p.src = append(p.src, p.cur)
		p.emitted++
		// Runaway-cross-product guard: a huge expansion must not
		// outrun the statement-boundary governor checks.
		if p.emitted&(govCheckRows-1) == 0 {
			if err := p.f.m.pollGovernor(); err != nil {
				p.err = err
				unbind(p.rowBuf, p.bind)
				return false
			}
		}
	}
	unbind(p.rowBuf, p.bind)
	return true
}

// exists is the negated-join callback: it stops at the first match.
func (p *matchProbe) exists(t term.Tuple) bool {
	p.found = matchArgs(p.args, t, p.rowBuf)
	unbind(p.rowBuf, p.bind)
	return !p.found
}

// lookup hands the probe every tuple of rel that matches the row's key
// under mask; a nil rel holds none.
func (p *matchProbe) lookup(rel storage.Rel, mask uint32) error {
	if rel == nil {
		return nil
	}
	key, err := buildKey(&p.sk, mask, p.args, p.rowBuf, rel.Arity())
	if err != nil {
		return err
	}
	if mask == 0 { // a scan emits at most rel.Len() rows: room once, not doubling
		p.reserve(rel.Len())
	}
	rel.Lookup(mask, key, p.yield)
	return nil
}

// reserve makes room for n more emissions of an expansion.
func (p *matchProbe) reserve(n int) {
	if p.expand {
		for c := range p.bindCols {
			p.bindCols[c] = slices.Grow(p.bindCols[c], n)
		}
		p.src = slices.Grow(p.src, n)
	}
}

// grabVals returns a length-n value vector with arbitrary contents; the
// caller writes every element. An undersized freelist entry is dropped
// rather than searched past — vector sizes within a workload converge,
// so the lists self-size after a call or two.
func (s *batchScratch) grabVals(n int) []term.Value {
	if k := len(s.vals); k > 0 {
		v := s.vals[k-1]
		s.vals = s.vals[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]term.Value, n)
}

// grabValsCap returns an empty value vector with capacity at least c.
func (s *batchScratch) grabValsCap(c int) []term.Value {
	if k := len(s.vals); k > 0 {
		v := s.vals[k-1]
		s.vals = s.vals[:k-1]
		if cap(v) >= c {
			return v[:0]
		}
	}
	return make([]term.Value, 0, c)
}

func (s *batchScratch) putVals(v []term.Value) { s.vals = append(s.vals, v) }

// grabIdx returns a length-n index vector with arbitrary contents.
func (s *batchScratch) grabIdx(n int) []int32 {
	if k := len(s.idx); k > 0 {
		v := s.idx[k-1]
		s.idx = s.idx[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]int32, n)
}

// grabIdxCap returns an empty index vector with capacity at least c.
func (s *batchScratch) grabIdxCap(c int) []int32 {
	if k := len(s.idx); k > 0 {
		v := s.idx[k-1]
		s.idx = s.idx[:k-1]
		if cap(v) >= c {
			return v[:0]
		}
	}
	return make([]int32, 0, c)
}

func (s *batchScratch) putIdx(v []int32) { s.idx = append(s.idx, v) }

// grabColArr returns a length-n all-nil column-pointer array. The freelist
// invariant is that every entry in [0:cap] is nil: writes only land inside
// an array's length, and putColArr takes arrays whose used region has been
// nil'd again (release does that as it walks).
func (s *batchScratch) grabColArr(n int) [][]term.Value {
	if k := len(s.colArrs); k > 0 {
		v := s.colArrs[k-1]
		s.colArrs = s.colArrs[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([][]term.Value, n)
}

func (s *batchScratch) putColArr(v [][]term.Value) { s.colArrs = append(s.colArrs, v) }

// batchLevel is one expansion generation of a batch. src maps each row of
// this level to the row of the previous level it came from (nil at level
// 0); cols holds, per register, the column of values bound at this level
// (nil when the register was not bound here).
type batchLevel struct {
	src  []int32
	cols [][]term.Value
}

// batchState is one in-flight batch: the rows of the newest (top) level,
// their lineage back through every expansion, and per register the level
// whose column currently holds its value. sel lists the active top-level
// row indexes in order; nil means all n rows are active (filters shrink
// sel, expansions push a new level and reset it).
type batchState struct {
	n      int
	nregs  int
	scr    *batchScratch
	sel    []int32
	where  []int // per register: level index of its column, -1 if zero everywhere
	levels []batchLevel
	abs    [][]int32 // memoized top-row -> level-row maps; reset on push
}

// release hands every live column, lineage vector, and selection map back
// to the scratch freelists. Called once per statement, after the head has
// returned — nothing the caller keeps aliases pooled storage — and by
// compact. Safe mid-pipeline too (error exits): the state is consistent
// after every op.
func (b *batchState) release() {
	for li := range b.levels {
		lv := &b.levels[li]
		if lv.src != nil {
			b.scr.putIdx(lv.src)
			lv.src = nil
		}
		if lv.cols != nil {
			for r, c := range lv.cols {
				if c != nil {
					b.scr.putVals(c)
					lv.cols[r] = nil
				}
			}
			b.scr.putColArr(lv.cols)
			lv.cols = nil
		}
	}
	for li, m := range b.abs {
		if m != nil {
			b.scr.putIdx(m)
			b.abs[li] = nil
		}
	}
	if b.sel != nil {
		b.scr.putIdx(b.sel)
		b.sel = nil
	}
}

// active returns the live row count.
func (b *batchState) active() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// absTo returns the lineage map from top-level rows to level-L rows (nil
// means identity, i.e. L is the top). Memoized until the next push.
func (b *batchState) absTo(L int) []int32 {
	top := len(b.levels) - 1
	if L == top {
		return nil
	}
	if b.abs[L] != nil {
		return b.abs[L]
	}
	up := b.absTo(L + 1)
	src := b.levels[L+1].src
	m := b.scr.grabIdx(b.n)
	if up == nil {
		copy(m, src[:b.n])
	} else {
		for i, j := range up {
			m[i] = src[j]
		}
	}
	b.abs[L] = m
	return m
}

// colAt returns register r's column indexed by top-level row, or nil when
// the register is zero for every row. A column living at an older level is
// gathered through the lineage maps once and memoized at the top.
func (b *batchState) colAt(r int) []term.Value {
	L := b.where[r]
	if L < 0 {
		return nil
	}
	top := len(b.levels) - 1
	if L == top {
		return b.levels[top].cols[r]
	}
	m := b.absTo(L)
	src := b.levels[L].cols[r]
	col := b.scr.grabVals(b.n)
	for i, j := range m {
		col[i] = src[j]
	}
	lv := &b.levels[top]
	if lv.cols == nil {
		lv.cols = b.scr.grabColArr(b.nregs)
	}
	lv.cols[r] = col
	b.where[r] = top
	return col
}

// pushLevel installs an expansion's output as the new top level: src is
// the lineage back to the previous level, and each bind register takes
// its freshly emitted column.
func (b *batchState) pushLevel(src []int32, bind []int, bindCols [][]term.Value) {
	lv := batchLevel{src: src, cols: b.scr.grabColArr(b.nregs)}
	b.levels = append(b.levels, lv)
	top := len(b.levels) - 1
	for k, reg := range bind {
		b.levels[top].cols[reg] = bindCols[k]
		b.where[reg] = top
	}
	b.n = len(src)
	// The previous level's selection vector and memoized lineage maps are
	// dead now (src already folds the selection in); recycle them. The
	// recycle loop leaves every abs entry nil, so the array just extends.
	if b.sel != nil {
		b.scr.putIdx(b.sel)
		b.sel = nil
	}
	for li, m := range b.abs {
		if m != nil {
			b.scr.putIdx(m)
			b.abs[li] = nil
		}
	}
	b.abs = append(b.abs, nil)
}

// regFiller loads an op's referenced registers into the shared row buffer
// row by row: the bridge to the per-row helpers (key building, pattern
// matching, expression evaluation). Registers the op does not mention are
// left untouched — the op cannot read them.
type regFiller struct {
	regs []int
	cols [][]term.Value
}

// filler resolves the given registers' columns once for the whole batch.
// The column-pointer array is a single per-scratch buffer: at most one
// filler is live at a time (each op builds its own and drops it).
func (b *batchState) filler(regs []int) regFiller {
	cols := b.scr.fillerCols
	if cap(cols) < len(regs) {
		cols = make([][]term.Value, len(regs))
		b.scr.fillerCols = cols
	}
	cols = cols[:len(regs)]
	for k, r := range regs {
		cols[k] = b.colAt(r)
	}
	return regFiller{regs: regs, cols: cols}
}

func (rf *regFiller) fill(i int32, rowBuf []term.Value) {
	for k, r := range rf.regs {
		if c := rf.cols[k]; c != nil {
			rowBuf[r] = c[i]
		} else {
			rowBuf[r] = term.Value{}
		}
	}
}

// distinct reports whether the batch's rows cannot repeat on the registers
// live, so that their count sizes a target exactly: it binds no register
// outside live, and the last segment's ops have no HiLog match and no
// Match that drops a column (a wildcard or compound argument).
func (b *batchState) distinct(ops []plan.PhysOp, live []int) bool {
	for r, l := range b.where {
		if l >= 0 && !slices.Contains(live, r) {
			return false
		}
	}
	for _, op := range ops {
		m, ok := op.Op.(*plan.Match)
		if _, dyn := op.Op.(*plan.DynMatch); dyn || ok && slices.ContainsFunc(m.Args, func(p term.Pattern) bool { return p.Kind > term.PatVar }) {
			return false
		}
	}
	return true
}

// compact copies every live column of the active rows through the
// lineage into one fresh level — the materialized baseline's store of the
// supplementary relation after an op (§9's extra load and store per
// tuple).
func (b *batchState) compact() {
	n := b.active()
	cols := b.scr.grabColArr(b.nregs)
	for r, L := range b.where {
		if L < 0 {
			continue
		}
		col, m := b.levels[L].cols[r], b.absTo(L)
		c := b.scr.grabVals(n)
		for k := range c {
			i := b.row(k)
			if m != nil {
				i = m[i]
			}
			c[k] = col[i]
		}
		cols[r] = c
		b.where[r] = 0
	}
	b.release()
	b.levels = append(b.levels[:0], batchLevel{cols: cols})
	b.abs = append(b.abs[:0], nil)
	b.n = n
}

// row returns the index of the k-th active row.
func (b *batchState) row(k int) int32 {
	if b.sel != nil {
		return b.sel[k]
	}
	return int32(k)
}

// forActive runs fn over the active rows in order, stopping on error.
func (b *batchState) forActive(fn func(i int32) error) error {
	if b.sel != nil {
		for _, i := range b.sel {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.n; i++ {
		if err := fn(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// newSel returns an empty selection vector with capacity for every active
// row, reusing the current one in place when possible (a filter only ever
// shrinks the active set, and compaction reads ahead of its writes).
func (b *batchState) newSel() []int32 {
	if b.sel != nil {
		return b.sel[:0]
	}
	return b.scr.grabIdxCap(b.n)
}

// runOp runs one pipe op over the batch. rel is the op's relation when
// have says it was resolved ahead; else a Match resolves its name per row.
func (f *frame) runOp(b *batchState, op plan.PipeOp, rel storage.Rel, have bool) error {
	regs := plan.OpRegs(b.scr.regs[:0], op)
	switch op := op.(type) {
	case *plan.Match:
		return f.batchJoin(b, op.Args, op.Bind, regs, op.Negated, func(p *matchProbe) error {
			r := rel
			if !have {
				var err error
				if r, err = f.resolveRead(op.Rel, p.rowBuf); err != nil {
					return err
				}
			}
			return p.lookup(r, op.BoundMask)
		})
	case *plan.DynMatch:
		return f.batchJoin(b, op.Args, op.Bind, regs, op.Negated, func(p *matchProbe) error {
			name, err := op.Pred.Build(p.rowBuf)
			if err != nil {
				return err
			}
			return p.lookup(f.dynResolve(name, op.Arity, op.Narrowed, op.Candidates), op.BoundMask)
		})
	case *plan.Compare:
		return f.batchFilterCompare(b, op, regs)
	case *plan.MatchBind:
		return f.batchMatchBind(b, op, regs)
	}
	return fmt.Errorf("vm: unknown pipe op %T", op)
}

// batchJoin joins every active row with the tuples visit hands p.yield
// for it, after filling the row's referenced registers into p.rowBuf. An
// expansion matches args against each tuple, appends the bind registers
// column-wise plus the source row, and advances the batch one lineage
// level — no pass-through column is touched; a negated join keeps the rows
// for which no tuple matches. Index probes, scans, HiLog matches and the
// call barriers all run on it; visit is only called, so its closure stays
// on the caller's stack.
func (f *frame) batchJoin(b *batchState, args []term.Pattern, bind, refRegs []int, negated bool,
	visit func(p *matchProbe) error) error {
	rf := b.filler(refRegs)
	nAct := b.active()
	p := &b.scr.probe
	p.f, p.args, p.rowBuf, p.bind, p.expand = f, args, b.scr.rowBuf, bind, !negated
	p.emitted, p.err = 0, nil
	var sel []int32
	if negated {
		p.yield = p.existsFn
		sel = b.newSel()
	} else {
		// Room for one output per active row — the common fanout for
		// index probes — so the append loop stays out of growslice for
		// everything but genuinely expanding scans.
		p.yield = p.emitFn
		p.bindCols = b.scr.grabBindCols(len(bind), nAct)
		p.src = b.scr.grabIdxCap(nAct)
	}
	for k := 0; k < nAct; k++ {
		i := b.row(k)
		rf.fill(i, p.rowBuf)
		p.cur, p.found = i, false
		if err := visit(p); err != nil {
			return err
		}
		if p.err != nil {
			return p.err
		}
		if negated && !p.found {
			sel = append(sel, i)
		}
	}
	if negated {
		b.sel = sel
	} else {
		b.pushLevel(p.src, bind, p.bindCols)
	}
	return nil
}

// batchFilterCompare refines the selection vector by a comparison. The
// branch-light fast path reads register columns and constants directly —
// no register-file fill, no expression-tree walk per row; compound
// operands take the fill-and-eval fallback with identical semantics.
func (f *frame) batchFilterCompare(b *batchState, op *plan.Compare, refRegs []int) error {
	rowBuf := b.scr.rowBuf
	lCol, lConst, lReg, lOK := b.exprCol(op.L)
	rCol, rConst, rReg, rOK := b.exprCol(op.R)
	sel := b.newSel()
	if lOK && rOK {
		err := b.forActive(func(i int32) error {
			l, r := lConst, rConst
			if lReg {
				if lCol != nil {
					l = lCol[i]
				}
				if l.IsZero() {
					return fmt.Errorf("unbound variable in expression")
				}
			}
			if rReg {
				if rCol != nil {
					r = rCol[i]
				}
				if r.IsZero() {
					return fmt.Errorf("unbound variable in expression")
				}
			}
			ok, err := compareValues(op.Op, l, r)
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, i)
			}
			return nil
		})
		b.sel = sel
		return err
	}
	rf := b.filler(refRegs)
	err := b.forActive(func(i int32) error {
		rf.fill(i, rowBuf)
		l, err := evalExpr(op.L, rowBuf)
		if err != nil {
			return err
		}
		r, err := evalExpr(op.R, rowBuf)
		if err != nil {
			return err
		}
		ok, err := compareValues(op.Op, l, r)
		if err != nil {
			return err
		}
		if ok {
			sel = append(sel, i)
		}
		return nil
	})
	b.sel = sel
	return err
}

// exprCol resolves an expression operand to a column source for the fast
// comparison path: a direct column (nil for an everywhere-unbound
// register) or a constant. ok is false for compound expressions, which
// fall back to per-row evaluation over the filled register buffer.
func (b *batchState) exprCol(e plan.Expr) (col []term.Value, konst term.Value, isReg, ok bool) {
	switch e := e.(type) {
	case plan.RegE:
		return b.colAt(e.Reg), term.Value{}, true, true
	case plan.ConstE:
		return nil, e.V, false, true
	}
	return nil, term.Value{}, false, false
}

// batchMatchBind runs an assignment/unification op. Without bind
// registers it is a pure filter (the pattern only checks); with them it
// is a one-to-at-most-one expansion.
func (f *frame) batchMatchBind(b *batchState, op *plan.MatchBind, refRegs []int) error {
	rowBuf := b.scr.rowBuf
	rf := b.filler(refRegs)
	if len(op.Bind) == 0 {
		sel := b.newSel()
		err := b.forActive(func(i int32) error {
			rf.fill(i, rowBuf)
			v, err := evalExpr(op.E, rowBuf)
			if err != nil {
				return err
			}
			if op.Pat.Match(v, rowBuf) {
				sel = append(sel, i)
			}
			return nil
		})
		b.sel = sel
		return err
	}
	nAct := b.active()
	bindCols := b.scr.grabBindCols(len(op.Bind), nAct)
	src := b.scr.grabIdxCap(nAct)
	err := b.forActive(func(i int32) error {
		rf.fill(i, rowBuf)
		v, err := evalExpr(op.E, rowBuf)
		if err != nil {
			unbind(rowBuf, op.Bind)
			return err
		}
		if op.Pat.Match(v, rowBuf) {
			for k, reg := range op.Bind {
				bindCols[k] = append(bindCols[k], rowBuf[reg])
			}
			src = append(src, i)
		}
		unbind(rowBuf, op.Bind)
		return nil
	})
	if err != nil {
		return err
	}
	b.pushLevel(src, op.Bind, bindCols)
	return nil
}
