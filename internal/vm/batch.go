// Vectorized batch kernels: the pipelined segment executor. A segment
// runs op-at-a-time over a column-major register file instead of
// interpreting the operator pipeline once per tuple: filters refine a
// selection vector without moving a byte of row data, and expansions
// (index probes and scans) append only their newly bound registers
// column-wise plus a source-row index.
//
// Columns are materialized lazily. An expansion does not gather the
// pass-through columns into the new row space; it records a lineage
// vector (new row -> source row) and leaves every earlier column at the
// level that produced it. An op that reads a register materializes just
// that column in the current row space (memoized). A segment hands the
// live batch to its consumer: the head reads its registers through the
// lineage maps and copies each derived row once, into its target; a
// segment that a barrier ends flattens each live column through the
// composed lineage maps once, into a fresh row slab.
//
// Output order is the nested-loop order of §9. Depth-first
// tuple-at-a-time evaluation emits results in lexicographic (row index,
// op-0 emission index, op-1 emission index, ...) order; breadth-first
// op-at-a-time processes every op over the full batch in that same source
// order, so a consumer enumerates exactly the same sequence. The
// materialized baseline runs these same kernels one op per segment, so it
// produces that sequence too.
package vm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// batchScratch recycles working vectors across segments: runPipe draws one
// per segment and returns it when the segment ends. Every column, lineage
// vector, and selection map is dead once the segment's consumer returns
// (a flatten copies into a fresh slab), so the vectors cycle through these
// freelists instead of churning the allocator once per op. Scratches are
// drawn from a sync.Pool shared by every machine in the process
// (concurrent snapshot sessions included); a call owns its scratch until
// it returns it, so no locking is needed inside.
//
// Pooled value vectors are not cleared on release; they may pin the
// previous segment's values until overwritten, which is bounded by one
// batch of scratch and irrelevant next to the relations themselves.
type batchScratch struct {
	state      batchState
	vals       [][]term.Value
	idx        [][]int32
	colArrs    [][][]term.Value
	rowBuf     []term.Value
	regs       []int
	fillerCols [][]term.Value
	bindCols   [][]term.Value
	maps       [][]int32
	sk         term.Tuple
	// Per-op vectors of the segment in flight (runPipe): pre-resolved
	// relations, whether each op has one, and the per-op tuple counters.
	rels []storage.Rel
	have []bool
	cnt  []int64
	// probe carries a match op's state into the storage callback; see
	// matchProbe.
	probe matchProbe
}

var batchScratchPool = sync.Pool{New: func() any {
	s := new(batchScratch)
	s.probe.emitFn, s.probe.existsFn = s.probe.emit, s.probe.exists
	return s
}}

// put returns the scratch to the pool, first dropping the relation
// references of the last segment so a pooled scratch pins no relation.
func (s *batchScratch) put() {
	clear(s.rels)
	s.probe.f = nil
	batchScratchPool.Put(s)
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
	// Expansion state: the bind registers, their emitted columns, the
	// lineage vector, the current source row and the emission count.
	bind     []int
	bindCols [][]term.Value
	src      []int32
	cur      int32
	emitted  int64
	err      error
	found    bool // existence probes: a matching tuple was seen
	emitFn   func(term.Tuple) bool
	existsFn func(term.Tuple) bool
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

// exists is the negated-match callback: it stops at the first match.
func (p *matchProbe) exists(t term.Tuple) bool {
	if matchArgs(p.args, t, p.rowBuf) {
		p.found = true
		return false
	}
	return true
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

// newBatchState transposes the incoming rows into level 0. Only registers
// that are non-zero somewhere get a column; at segment start that is
// typically none (the seed row is empty) or the handful of registers
// bound by earlier steps.
func newBatchState(rows [][]term.Value, nregs int, scr *batchScratch) *batchState {
	// The state shell lives in the scratch: its backing arrays (register
	// map, level list, lineage memos) carry over from the previous segment.
	b := &scr.state
	b.n = len(rows)
	b.nregs = nregs
	b.scr = scr
	b.sel = nil
	if cap(b.where) < nregs {
		b.where = make([]int, nregs)
	}
	b.where = b.where[:nregs]
	b.levels = append(b.levels[:0], batchLevel{})
	b.abs = append(b.abs[:0], nil)
	b.levels[0].cols = scr.grabColArr(nregs)
	for r := 0; r < nregs; r++ {
		b.where[r] = -1
		materialize := false
		for i := range rows {
			if !rows[i][r].IsZero() {
				materialize = true
				break
			}
		}
		if !materialize {
			continue
		}
		col := scr.grabVals(len(rows))
		for i := range rows {
			col[i] = rows[i][r]
		}
		b.levels[0].cols[r] = col
		b.where[r] = 0
	}
	return b
}

// release hands every live column, lineage vector, and selection map back
// to the scratch freelists. Called once per runPipeBatch, after the
// consumer has returned — nothing the caller keeps aliases pooled
// storage. Safe mid-pipeline too (error exits): the state is consistent
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

// exprRegs appends the registers an expression reads to dst (no
// duplicates relative to dst's existing contents).
func exprRegs(e plan.Expr, dst []int) []int {
	switch e := e.(type) {
	case plan.RegE:
		for _, r := range dst {
			if r == e.Reg {
				return dst
			}
		}
		return append(dst, e.Reg)
	case plan.PatE:
		return e.P.Regs(dst)
	case plan.BinE:
		dst = exprRegs(e.L, dst)
		return exprRegs(e.R, dst)
	case plan.CallE:
		for _, a := range e.Args {
			dst = exprRegs(a, dst)
		}
	}
	return dst
}

// runPipeBatch executes a segment's operators batch-at-a-time over the
// given rows in the caller's scratch, adding to the caller's per-op tuple
// counters: cnt[i] counts tuples entering op i, cnt[len(ops)] the segment
// output. It hands the surviving rows to consume, live.
func (f *frame) runPipeBatch(scr *batchScratch, ops []plan.PhysOp, rels []storage.Rel, have []bool,
	rows [][]term.Value, cnt []int64, consume func(rowView) error) error {
	nregs := len(rows[0])
	b := newBatchState(rows, nregs, scr)
	defer b.release()
	if cap(scr.rowBuf) < nregs {
		scr.rowBuf = make([]term.Value, nregs)
	}
	scr.rowBuf = scr.rowBuf[:nregs]
	rowBuf := scr.rowBuf
	clear(rowBuf)
	regScratch := scr.regs[:0]
	if cap(regScratch) == 0 {
		regScratch = make([]int, 0, 16)
		scr.regs = regScratch
	}
	for i := range ops {
		cnt[i] += int64(b.active())
		if b.active() == 0 {
			return consume(rowView{})
		}
		var err error
		switch op := ops[i].Op.(type) {
		case *plan.Match:
			refRegs := regScratch
			for a := range op.Args {
				refRegs = op.Args[a].Regs(refRegs)
			}
			refRegs = op.Rel.Name.Regs(refRegs)
			// The closure exists only for late-resolved names; the usual
			// pre-resolved case passes the relation directly, so the hot
			// path allocates nothing per op.
			var resolve func([]term.Value) (storage.Rel, error)
			if !have[i] {
				resolve = func(regs []term.Value) (storage.Rel, error) {
					return f.resolveRead(op.Rel, regs)
				}
			}
			if op.Negated {
				err = f.batchFilterMatch(b, op.BoundMask, op.Args, refRegs, rels[i], resolve, rowBuf)
			} else {
				err = f.batchExpandMatch(b, op.BoundMask, op.Args, op.Bind, refRegs, rels[i], resolve, rowBuf)
			}
		case *plan.DynMatch:
			refRegs := regScratch
			for a := range op.Args {
				refRegs = op.Args[a].Regs(refRegs)
			}
			refRegs = op.Pred.Regs(refRegs)
			resolve := func(regs []term.Value) (storage.Rel, error) {
				name, err := op.Pred.Build(regs)
				if err != nil {
					return nil, err
				}
				return f.dynResolve(name, op.Arity, op.Narrowed, op.Candidates), nil
			}
			if op.Negated {
				err = f.batchFilterMatch(b, op.BoundMask, op.Args, refRegs, nil, resolve, rowBuf)
			} else {
				err = f.batchExpandMatch(b, op.BoundMask, op.Args, op.Bind, refRegs, nil, resolve, rowBuf)
			}
		case *plan.Compare:
			err = f.batchFilterCompare(b, op, regScratch, rowBuf)
		case *plan.MatchBind:
			err = f.batchMatchBind(b, op, regScratch, rowBuf)
		default:
			return fmt.Errorf("vm: unknown pipe op %T", op)
		}
		if err != nil {
			return err
		}
	}
	nOut := b.active()
	cnt[len(ops)] += int64(nOut)
	if nOut == 0 {
		return consume(rowView{})
	}
	atomic.AddInt64(&f.m.Stats.TuplesMaterialized, int64(nOut))
	if err := f.m.pollGovernor(); err != nil {
		return err
	}
	return consume(rowView{n: nOut, b: b})
}

// rowView is the rows a segment hands its consumer, valid while the
// consumer runs: the live batch, read through its columns, or (b nil) a
// row set.
type rowView struct {
	n    int
	b    *batchState
	rows [][]term.Value
	rf   regFiller
}

// flatten returns the rows row-major, a live batch copied to a fresh slab.
func (v *rowView) flatten() [][]term.Value {
	if v.b != nil {
		return v.b.flatten(v.n)
	}
	return v.rows
}

// read readies row for a consumer of the registers regs.
func (v *rowView) read(regs []int) {
	if v.b != nil {
		v.rf = v.b.filler(regs)
	}
}

// row returns the k-th row with the read registers set; a batch row is
// filled into the scratch row buffer, valid until the next call.
func (v *rowView) row(k int) []term.Value {
	if v.b == nil {
		return v.rows[k]
	}
	v.rf.fill(v.b.row(k), v.b.scr.rowBuf)
	return v.b.scr.rowBuf
}

// distinct reports whether the view's rows cannot repeat on the registers
// live, so that their count sizes a target exactly: a row set counts as
// distinct, a batch when it binds no register outside live, has no HiLog
// match, and no Match drops a column (a wildcard or compound argument).
func (v *rowView) distinct(ops []plan.PhysOp, live []int) bool {
	if v.b == nil {
		return true
	}
	for r, l := range v.b.where {
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

// flatten materializes the surviving rows back to row-major output,
// resolving each live column through the composed lineage maps. One
// backing slab holds every row instead of a clone per row; 3-index slicing
// keeps the rows disjoint, so downstream in-place register mutation stays
// row-private. Each register is copied exactly once per output row.
func (b *batchState) flatten(nOut int) [][]term.Value {
	top := len(b.levels) - 1
	maps := b.scr.maps
	if cap(maps) < len(b.levels) {
		maps = make([][]int32, len(b.levels))
		b.scr.maps = maps
	}
	maps = maps[:len(b.levels)]
	cur := b.sel // nil = identity over all n rows
	maps[top] = cur
	for L := top; L > 0; L-- {
		src := b.levels[L].src
		next := b.scr.grabIdx(nOut)
		if cur == nil {
			copy(next, src[:nOut])
		} else {
			for k, i := range cur {
				next[k] = src[i]
			}
		}
		maps[L-1] = next
		cur = next
	}
	flat := make([]term.Value, nOut*b.nregs)
	out := make([][]term.Value, nOut)
	for k := range out {
		out[k] = flat[k*b.nregs : (k+1)*b.nregs : (k+1)*b.nregs]
	}
	for r := 0; r < b.nregs; r++ {
		L := b.where[r]
		if L < 0 {
			continue
		}
		col := b.levels[L].cols[r]
		if m := maps[L]; m != nil {
			for k := 0; k < nOut; k++ {
				out[k][r] = col[m[k]]
			}
		} else {
			for k := 0; k < nOut; k++ {
				out[k][r] = col[k]
			}
		}
	}
	// maps[top] is b.sel (released with the state); the composed maps
	// below it were grabbed here and are dead now.
	for L := 0; L < top; L++ {
		if maps[L] != nil {
			b.scr.putIdx(maps[L])
		}
	}
	return out
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

// batchExpandMatch runs a positive match (index probe or scan) over the
// batch. Per source row it fills the op's referenced registers once,
// builds the probe key with the shared buildKey helper, and streams the
// relation's matching tuples into the scratch's matchProbe; each emission
// appends the op's bound registers column-wise plus the source index, and
// the batch advances one lineage level — no pass-through column is
// touched. srel is the statically resolved relation; a non-nil resolve
// overrides it per row (late-resolved or computed names) and exists so the
// static hot path never allocates a closure.
func (f *frame) batchExpandMatch(b *batchState, mask uint32, args []term.Pattern,
	bind []int, refRegs []int, srel storage.Rel,
	resolve func([]term.Value) (storage.Rel, error), rowBuf []term.Value) error {
	rf := b.filler(refRegs)
	// Pre-size the emission buffers for one output per active row — the
	// common fanout for index probes — so the append loop stays out of
	// growslice for everything but genuinely expanding scans.
	nAct := b.active()
	p := &b.scr.probe
	p.f, p.args, p.rowBuf, p.bind = f, args, rowBuf, bind
	p.bindCols = b.scr.grabBindCols(len(bind), nAct)
	p.src = b.scr.grabIdxCap(nAct)
	p.emitted, p.err = 0, nil
	for k := 0; k < nAct; k++ {
		i := b.row(k)
		rf.fill(i, rowBuf)
		rel := srel
		if resolve != nil {
			var err error
			if rel, err = resolve(rowBuf); err != nil {
				return err
			}
		}
		if rel == nil {
			continue
		}
		key, err := buildKey(&b.scr.sk, mask, args, rowBuf, rel.Arity())
		if err != nil {
			return err
		}
		if mask == 0 { // a scan emits at most rel.Len() rows: room once, not doubling
			for c := range p.bindCols {
				p.bindCols[c] = slices.Grow(p.bindCols[c], rel.Len())
			}
			p.src = slices.Grow(p.src, rel.Len())
		}
		p.cur = i
		rel.Lookup(mask, key, p.emitFn)
		if p.err != nil {
			return p.err
		}
	}
	b.pushLevel(p.src, bind, p.bindCols)
	return nil
}

// batchFilterMatch runs a negated match as a pure filter: rows survive
// when no tuple of the (possibly per-row resolved) relation matches.
// Negated ops bind nothing, so the register file is untouched.
func (f *frame) batchFilterMatch(b *batchState, mask uint32, args []term.Pattern,
	refRegs []int, srel storage.Rel,
	resolve func([]term.Value) (storage.Rel, error), rowBuf []term.Value) error {
	rf := b.filler(refRegs)
	nAct := b.active()
	sel := b.newSel()
	p := &b.scr.probe
	p.args, p.rowBuf = args, rowBuf
	for k := 0; k < nAct; k++ {
		i := b.row(k)
		rf.fill(i, rowBuf)
		rel := srel
		if resolve != nil {
			var err error
			if rel, err = resolve(rowBuf); err != nil {
				return err
			}
		}
		if rel != nil {
			key, err := buildKey(&b.scr.sk, mask, args, rowBuf, rel.Arity())
			if err != nil {
				return err
			}
			p.found = false
			rel.Lookup(mask, key, p.existsFn)
			if p.found {
				continue
			}
		}
		sel = append(sel, i)
	}
	b.sel = sel
	return nil
}

// batchFilterCompare refines the selection vector by a comparison. The
// branch-light fast path reads register columns and constants directly —
// no register-file fill, no expression-tree walk per row; compound
// operands take the fill-and-eval fallback with identical semantics.
func (f *frame) batchFilterCompare(b *batchState, op *plan.Compare,
	regScratch []int, rowBuf []term.Value) error {
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
	refRegs := exprRegs(op.R, exprRegs(op.L, regScratch))
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
func (f *frame) batchMatchBind(b *batchState, op *plan.MatchBind,
	regScratch []int, rowBuf []term.Value) error {
	refRegs := op.Pat.Regs(exprRegs(op.E, regScratch))
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
