// Package vm executes compiled Glue programs. A statement's supplementary
// relations (§3.2) are one columnar batch (batch.go) from the seed row to
// the head; pipeline breaks dedup it and barriers read and extend it in
// place. It implements both execution strategies discussed in §9: the
// default pipelined (nested-join) strategy, which runs a segment's
// operators back to back over the batch, and a fully materialized baseline
// that stores the supplementary relation after every operator. A
// procedure call (§4) runs in a frame whose in, return and local
// relations sit in slots the compiler numbered; they come from the temp
// allocator (storage.Scratch), so back-end experiments see the cost of
// short-lived temporaries, and are released when the call returns.
package vm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"gluenail/internal/hashtab"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// ExecStats counts executor work for the experiments. Counters are bumped
// with atomic adds; read a snapshot only between statements or after
// execution finishes.
type ExecStats struct {
	StmtsExecuted  int64
	LoopIterations int64
	PipelineBreaks int64
	// TuplesMaterialized counts the rows leaving each segment of the
	// batch — to a break, a barrier or the head — and, under the
	// materialized strategy, each op's output, which it copies.
	TuplesMaterialized int64
	// RowsDeduped counts rows the batch drops at pipeline breaks and ahead
	// of a "+=[key]" head; other heads leave repeats to the target.
	RowsDeduped   int64
	ProcCalls     int64
	DynDispatches int64
	// Moves counts statements run as moves (plan.Move): the target took
	// over its source's storage instead of a copy of its rows.
	Moves int64
	// GovernorChecks counts cooperative governor polls (cancellation +
	// budget checks); E14 uses it to attribute the governor's overhead.
	GovernorChecks int64
}

// Machine executes a compiled program against an EDB store.
type Machine struct {
	Prog     *plan.Program
	EDB      storage.Store
	Temp     storage.Scratch // frame relations; each frame releases its own
	Builtins *Registry
	Out      io.Writer
	In       *bufio.Reader
	// Materialized selects the fully materialized execution strategy
	// (the E2 baseline); the default is pipelined.
	Materialized bool
	// LoopLimit bounds repeat-loop iterations (0 = unlimited); exceeded
	// loops return an error rather than hanging.
	LoopLimit int
	// StatsOrdering enables cost-based reordering of each segment's pipe
	// ops at statement-prepare time, driven by live relation statistics and
	// observed per-op selectivities; New enables it. Disabled, the compiled
	// (greedy or textual) op order executes — still through the
	// physical-plan layer, so instrumentation is identical.
	StatsOrdering bool
	// Parallelism, StringKeyKernels, PlanCache and BatchKernels are
	// ignored: the worker pool, the string-key kernels, the scalar kernels
	// and the plan-cache off switch they selected are gone, and the batch
	// kernels and the plan cache always run. The fields remain only because
	// benchspine's parity test reads them; New sets PlanCache and
	// BatchKernels to true to match what runs.
	Parallelism      int
	StringKeyKernels bool
	PlanCache        bool
	BatchKernels     bool
	// Trace, when non-nil, receives one line per statement execution and
	// procedure call — the executor's narration of §3.2's evaluation.
	Trace io.Writer
	// Commit, when non-nil, is invoked after every top-level statement —
	// a statement executed at procedure-call depth 1 — marking the
	// durability commit points: the write-ahead log seals the EDB deltas
	// of the statement into one atomic batch. Statements of nested
	// procedure calls commit with the outer statement that invoked them.
	Commit func() error
	// Abort, when non-nil, is invoked when a top-level statement fails
	// (error, cancellation, budget trip, or contained panic): the WAL
	// recorder discards the statement's partial EDB deltas so the next
	// commit seals only whole statements.
	Abort func()
	// MaxDepth bounds procedure-call nesting (0 = unlimited): a
	// self-recursive procedure fails with ErrDepthLimit instead of
	// overflowing the goroutine stack. The public API defaults it to
	// DefaultMaxDepth.
	MaxDepth int
	// MaxTuples bounds the total tuples inserted (EDB + temp) during one
	// top-level call (0 = unlimited); exceeding it fails with
	// ErrMemoryBudget at the next governor check.
	MaxTuples int64
	// MaxRelRows bounds the cardinality of any single relation written by
	// the program (0 = unlimited); checked after every head application
	// and in-body update.
	MaxRelRows int
	Stats      ExecStats

	callDepth int
	// gov is the active execution governor, installed for the duration of
	// one top-level CallProcContext; nil when the call is ungoverned.
	// curProc/curStmt track the active statement for error labelling.
	// poisoned marks the machine unusable after a contained panic: the
	// panic may have unwound mid-mutation, so storage invariants are no
	// longer trusted and further calls are rejected with ErrPoisoned.
	// Governor and budget errors do NOT poison — they abort at clean
	// boundaries and the machine stays reusable.
	gov          *governor
	curProc      string
	curStmt      string
	poisoned     bool
	poisonDetail string
	// profiles accumulates per-statement execution feedback (per-op tuple
	// counts); lastPhys remembers the physical plan each statement last
	// executed with. Both are touched only by the executing goroutine.
	profiles map[*plan.Stmt]*plan.StmtProfile
	lastPhys map[*plan.Stmt]*plan.PhysPlan
	// planStats counts this machine's prepared-plan cache outcomes; the
	// plans themselves live on the program's statements, shared by every
	// machine running it.
	planStats plan.CacheStats
	// classes is the scratch frame.classes builds class vectors in.
	classes []uint8
	// headTup is the scratch every head and in-body update builds its
	// tuples in (headRow); headOne passes one to ModifyByKey. Relations
	// copy what they keep, so neither is ever retained.
	headTup term.Tuple
	headOne [1]term.Tuple
}

// New returns a machine over the program and EDB store, with frame-local
// relations allocated from temp. A nil temp uses a private MemStore; a nil
// registry uses the standard builtins.
func New(prog *plan.Program, edb storage.Store, temp storage.Scratch, reg *Registry) *Machine {
	if temp == nil {
		temp = storage.NewMemStore(storage.IndexAdaptive)
	}
	if reg == nil {
		reg = NewRegistry()
	}
	return &Machine{
		Prog:          prog,
		EDB:           edb,
		Temp:          temp,
		Builtins:      reg,
		Out:           os.Stdout,
		In:            emptyInput(),
		StatsOrdering: true,
		PlanCache:     true,
		BatchKernels:  true,
		profiles:      make(map[*plan.Stmt]*plan.StmtProfile),
		lastPhys:      make(map[*plan.Stmt]*plan.PhysPlan),
	}
}

// emptyInput is the input a machine starts with: read_line sees EOF. An
// empty source needs no buffer, so it gets bufio's minimum size rather
// than the 4 KiB default — a snapshot session builds a machine per read.
func emptyInput() *bufio.Reader {
	return bufio.NewReaderSize(strings.NewReader(""), 16)
}

// ResetProfiles clears the accumulated per-op execution counters and the
// last executed plans, so EXPLAIN ANALYZE measures exactly one run. The
// prepared plans go stale with them — for every machine on the program,
// since they are shared — and this machine's cache counters restart: the
// drift check compares cached estimates against exactly these profiles.
// The next run plans fresh unless another machine re-plans the same
// statement under the new epoch first; it then hits that plan.
func (m *Machine) ResetProfiles() {
	m.profiles = make(map[*plan.Stmt]*plan.StmtProfile)
	m.lastPhys = make(map[*plan.Stmt]*plan.PhysPlan)
	m.Prog.ResetPlans()
	m.planStats = plan.CacheStats{}
}

// PlanCacheStats snapshots the machine's prepared-plan cache
// hit/miss/invalidation counters.
func (m *Machine) PlanCacheStats() plan.CacheStats { return m.planStats }

// profileFor returns (allocating on first use) the feedback profile of a
// statement.
func (m *Machine) profileFor(st *plan.Stmt) *plan.StmtProfile {
	p := m.profiles[st]
	if p == nil {
		p = plan.NewStmtProfile(st.Steps)
		m.profiles[st] = p
	}
	return p
}

// planner builds the frame's physical planner: statistics resolve against
// the frame's relation namespace (locals shadow the EDB), so repeat-loop
// re-planning sees semi-naive deltas shrink.
func (f *frame) planner() *plan.Planner {
	return &plan.Planner{Stats: f, Reorder: f.m.StatsOrdering}
}

// RelStats implements plan.StatsSource for statement-prepare-time planning.
// Never called concurrently with a writer: planning happens between
// statements, on the executing goroutine.
func (f *frame) RelStats(ref plan.RelRef) (plan.RelEstimate, bool) {
	if !ref.Name.IsGround() {
		return plan.RelEstimate{}, false
	}
	rel, err := f.resolveRead(ref, nil)
	if err != nil || rel == nil {
		return plan.RelEstimate{}, false
	}
	return relEstimate(rel), true
}

// relEstimate builds the planner's statistics snapshot for one relation:
// cardinality, per-column distinct estimates, and — when the relation's
// backend reports one (storage.Coster, the disk engine) — the per-row
// access-cost factors the greedy orderer weighs estimates with.
func relEstimate(rel storage.Rel) plan.RelEstimate {
	re := plan.RelEstimate{Rows: rel.Len(), Distinct: make([]int, rel.Arity())}
	for i := range re.Distinct {
		re.Distinct[i] = rel.DistinctEst(i)
	}
	if c, ok := rel.(storage.Coster); ok {
		p := c.CostProfile()
		re.ScanCost, re.LookupCost, re.Engine = p.Scan, p.Lookup, p.Engine
	}
	return re
}

// RuntimeError wraps an execution failure with procedure context.
type RuntimeError struct {
	ProcID string
	Err    error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("in %s: %v", e.ProcID, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// tracef writes one trace line. Callers check m.Trace first, so that
// with tracing off no argument is boxed.
func (m *Machine) tracef(format string, args ...any) {
	fmt.Fprintf(m.Trace, format+"\n", args...)
}

// CallProc invokes a compiled procedure set-at-a-time: in holds the tuples
// of the procedure's in relation (for a 0-bound procedure pass a single
// empty tuple). It returns the tuples assigned to return.
func (m *Machine) CallProc(id string, in []term.Tuple) ([]term.Tuple, error) {
	return m.CallProcContext(context.Background(), id, in)
}

// CallProcContext is CallProc under an execution governor: the context's
// cancellation/deadline and the machine's budgets are polled cooperatively
// at instruction boundaries, repeat-loop iterations, and every
// govCheckRows emitted rows, and a trip aborts at a clean statement
// boundary (the failed statement's WAL deltas are discarded via Abort, so
// durable state stays a statement-boundary prefix). A top-level call also
// arms panic containment: an internal panic is converted to a
// *GovernorError wrapping ErrPanic that carries the active statement
// label, and the machine is poisoned — subsequent calls fail with
// ErrPoisoned because the panic may have unwound mid-mutation. Governor
// and budget failures do not poison; the machine stays reusable.
func (m *Machine) CallProcContext(ctx context.Context, id string, in []term.Tuple) (out []term.Tuple, err error) {
	if m.callDepth == 0 {
		if m.poisoned {
			return nil, &GovernorError{Limit: ErrPoisoned, Detail: m.poisonDetail}
		}
		m.installGovernor(ctx)
		defer func() {
			m.gov = nil
			if r := recover(); r != nil {
				// Storage faults ride the panic channel (the Rel read
				// interface has no error returns) but are not VM bugs:
				// the store already contained the damage — a degraded
				// engine or a typed corruption error — and the machine's
				// own state unwound at a statement boundary like any
				// governed abort. Convert without poisoning so the
				// session keeps serving reads.
				if perr, ok := r.(error); ok &&
					(errors.Is(perr, storage.ErrDiskFault) || errors.Is(perr, storage.ErrCorrupt)) {
					if m.Abort != nil {
						m.Abort()
					}
					out, err = nil, &GovernorError{Limit: perr,
						Proc: m.curProc, Stmt: m.curStmt}
					m.curProc, m.curStmt = "", ""
					return
				}
				m.poisoned = true
				m.poisonDetail = fmt.Sprint(r)
				if m.Abort != nil {
					m.Abort()
				}
				out, err = nil, &GovernorError{Limit: ErrPanic,
					Proc: m.curProc, Stmt: m.curStmt, Detail: fmt.Sprint(r)}
			}
			m.curProc, m.curStmt = "", ""
		}()
	}
	err = m.call(id, in, func(callee *frame) error {
		out = callee.rels[plan.SlotReturn].All()
		for i := range out {
			out[i] = out[i][callee.lead:]
		}
		return nil
	})
	return out, err
}

// call runs procedure id on the input tuples in a fresh frame and hands
// use the frame, whose return relation (or the one a move swaps in) is
// released with the frame after use returns. It is the one entry of every
// call: CallProcContext, the call barriers and the moves alike.
func (m *Machine) call(id string, in []term.Tuple, use func(callee *frame) error) error {
	proc, ok := m.Prog.Proc(id)
	if !ok {
		return fmt.Errorf("vm: no procedure %q", id)
	}
	if m.Trace != nil {
		m.tracef("call %s with %d input tuple(s)", id, len(in))
	}
	atomic.AddInt64(&m.Stats.ProcCalls, 1)
	m.callDepth++
	defer func() { m.callDepth-- }()
	if m.MaxDepth > 0 && m.callDepth > m.MaxDepth {
		return &RuntimeError{ProcID: id, Err: m.govErr(ErrDepthLimit,
			fmt.Sprintf("call depth %d exceeds limit %d", m.callDepth, m.MaxDepth))}
	}
	f := &frame{m: m, proc: proc, rels: make([]storage.Rel, plan.SlotLocals+len(proc.Locals))}
	defer f.drop()
	for i := range f.rels {
		f.rels[i] = m.Temp.New(proc.Slot(i).Arity)
	}
	inRel := f.rels[plan.SlotIn]
	inRel.Grow(len(in))
	for _, t := range in {
		if len(t) != proc.Bound {
			return &RuntimeError{ProcID: id, Err: fmt.Errorf(
				"input tuple arity %d, procedure expects %d", len(t), proc.Bound)}
		}
		inRel.Insert(t)
	}
	if err := f.execInstrs(proc.Body); err != nil {
		return &RuntimeError{ProcID: id, Err: err}
	}
	if m.Trace != nil {
		m.tracef("return from %s: %d tuple(s)", id, f.rels[plan.SlotReturn].Len())
	}
	return use(f)
}

// frame is one procedure invocation.
type frame struct {
	m    *Machine
	proc *plan.Proc
	// rels holds the frame's relations by compiler slot (plan.SlotIn,
	// plan.SlotReturn, then the declared locals).
	rels []storage.Rel
	// unchanged holds per-site memory for the unchanged builtin: the
	// relation it saw and that relation's version.
	unchanged map[int]seenRel
	// views holds, by slot, a loop's delta and every row up to its end
	// (plan.RangeDelta, plan.RangeSeen); made by the first plan.Advance.
	views    [][2]rangeRel
	returned bool
	// lead is the number of constant columns leading the rows of a query's
	// return, which a move took from a call with constant arguments
	// (plan.Move.Input); only CallProcContext reads such a return.
	lead  int
	spare *batchScratch // see batchScratch.put
	// scratch pools hash tables (hashkit.go) across the statements — and
	// repeat-loop iterations — this frame executes; statements run
	// sequentially per frame, so no locking.
	scratch []*hashtab.Table
}

// drop releases the frame's relations, whatever slots moves left them in;
// the slots past a New that panicked are still empty.
func (f *frame) drop() {
	if f.spare != nil {
		batchScratchPool.Put(f.spare)
	}
	for _, r := range f.rels {
		if r != nil {
			f.m.Temp.Release(r)
		}
	}
}

func (f *frame) execInstrs(instrs []plan.Instr) error {
	for _, in := range instrs {
		if f.returned {
			return nil
		}
		// Instruction boundaries are the governor's primary check sites:
		// they bracket every statement and every WAL commit point, so a
		// cancelled call always aborts with whole statements committed.
		if err := f.m.pollGovernor(); err != nil {
			return err
		}
		switch in := in.(type) {
		case *plan.ExecStmt:
			if err := f.execStmt(in.S); err != nil {
				f.m.abortPoint()
				return err
			}
			if err := f.m.commitPoint(); err != nil {
				return err
			}
		case *plan.Advance:
			// §10's uniondiff step: the delta becomes the rows appended
			// since the last, [lo, hi) = [hi, Len).
			if f.views == nil {
				f.views = make([][2]rangeRel, len(f.rels))
			}
			v := &f.views[in.Rel.Slot]
			v[0].lo, v[0].hi = v[0].hi, f.rels[in.Rel.Slot].Len()
			v[1].hi = v[0].hi
		case *plan.Loop:
			iters := 0
			for {
				atomic.AddInt64(&f.m.Stats.LoopIterations, 1)
				iters++
				if f.m.LoopLimit > 0 && iters > f.m.LoopLimit {
					return &GovernorError{Limit: ErrLoopLimit, Proc: f.proc.ID,
						Detail: fmt.Sprintf("repeat loop exceeded %d iterations", f.m.LoopLimit)}
				}
				if err := f.m.pollGovernor(); err != nil {
					return err
				}
				if err := f.execInstrs(in.Body); err != nil {
					return err
				}
				if f.returned {
					return nil
				}
				done := false
				for _, cond := range in.Until {
					ok, err := f.evalCond(cond)
					if err != nil {
						return err
					}
					if ok {
						done = true
						break
					}
				}
				if done {
					break
				}
			}
		}
	}
	return nil
}

// resolveRead resolves a relation reference for reading; a missing EDB
// relation reads as empty (nil Rel).
func (f *frame) resolveRead(ref plan.RelRef, regs []term.Value) (storage.Rel, error) {
	if ref.Space == plan.SpaceLocal {
		if ref.Range == plan.RangeAll {
			return f.rels[ref.Slot], nil
		}
		v := &f.views[ref.Slot][ref.Range-1]
		v.Rel = f.rels[ref.Slot]
		return v, nil
	}
	name, err := ref.Name.Build(regs)
	if err != nil {
		return nil, err
	}
	rel, ok := f.m.EDB.Get(name, ref.Arity)
	if !ok {
		return nil, nil
	}
	return rel, nil
}

// resolveWrite resolves a relation reference for writing, creating EDB
// relations on demand.
func (f *frame) resolveWrite(ref plan.RelRef, regs []term.Value) (storage.Rel, error) {
	if ref.Space == plan.SpaceLocal {
		return f.rels[ref.Slot], nil
	}
	name, err := ref.Name.Build(regs)
	if err != nil {
		return nil, err
	}
	return f.m.EDB.Ensure(name, ref.Arity), nil
}

// rangeRel reads slots [lo, hi) of a frame relation (storage.Ranger), a
// loop's delta or, from lo 0, every row up to its end; the relation only
// grows meanwhile. Statements read it through Len, Scan and Lookup.
type rangeRel struct {
	storage.Rel
	lo, hi int
}

func (v *rangeRel) Len() int { return v.hi - v.lo }

// CostProfile implements storage.Coster with the range's factors, if any.
func (v *rangeRel) CostProfile() storage.CostProfile {
	if c, ok := v.Rel.(storage.RangeCoster); ok {
		return c.RangeCost(v.lo, v.hi)
	}
	return storage.CostProfile{}
}

func (v *rangeRel) Scan(yield func(term.Tuple) bool) { v.Lookup(0, nil, yield) }

func (v *rangeRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	v.Rel.(storage.Ranger).LookupRange(v.lo, v.hi, mask, key, yield)
}

// commitPoint runs the Commit hook if this is a top-level statement
// boundary. A failed statement never reaches it, so its partial EDB
// effects stay uncommitted and are lost on crash — recovery always lands
// on a statement-boundary prefix.
func (m *Machine) commitPoint() error {
	if m.Commit == nil || m.callDepth != 1 {
		return nil
	}
	return m.Commit()
}
