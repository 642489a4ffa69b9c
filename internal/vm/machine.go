// Package vm executes compiled Glue programs. It implements both execution
// strategies discussed in §9: the default pipelined (nested-join) strategy,
// which streams each supplementary row through a segment's operators and
// materializes only at pipeline breaks, and a fully materialized baseline
// that stores the supplementary relation after every operator. Procedure
// frames hold per-invocation local relations (§4), created in the temp
// store so back-end experiments see the cost of short-lived temporaries.
package vm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"

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
	// TuplesMaterialized counts rows copied into materialized supplementary
	// relations: every op's output under the materialized strategy, each
	// segment's output under the pipelined one.
	TuplesMaterialized int64
	RowsDeduped        int64
	ProcCalls          int64
	DynDispatches      int64
	// GovernorChecks counts cooperative governor polls (cancellation +
	// budget checks); E14 uses it to attribute the governor's overhead.
	GovernorChecks int64
}

// Machine executes a compiled program against an EDB store.
type Machine struct {
	Prog     *plan.Program
	EDB      storage.Store
	Temp     storage.Store
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

	frameID   uint64
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
	// planCache holds the prepared plans; same single-goroutine contract
	// as profiles.
	planCache *plan.PlanCache
}

// New returns a machine over the program and EDB store, with frame-local
// relations allocated from temp. A nil temp uses a private MemStore; a nil
// registry uses the standard builtins.
func New(prog *plan.Program, edb, temp storage.Store, reg *Registry) *Machine {
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
		In:            bufio.NewReader(strings.NewReader("")),
		StatsOrdering: true,
		PlanCache:     true,
		BatchKernels:  true,
		profiles:      make(map[*plan.Stmt]*plan.StmtProfile),
		lastPhys:      make(map[*plan.Stmt]*plan.PhysPlan),
		planCache:     plan.NewPlanCache(),
	}
}

// ResetProfiles clears the accumulated per-op execution counters and the
// cached physical plans, so EXPLAIN ANALYZE measures exactly one run. The
// prepared-plan cache resets with them: its drift check compares cached
// estimates against exactly these profiles.
func (m *Machine) ResetProfiles() {
	m.profiles = make(map[*plan.Stmt]*plan.StmtProfile)
	m.lastPhys = make(map[*plan.Stmt]*plan.PhysPlan)
	m.planCache.Reset()
}

// PlanCacheStats snapshots the prepared-plan cache's hit/miss/invalidation
// counters.
func (m *Machine) PlanCacheStats() plan.CacheStats { return m.planCache.Stats() }

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

// tracef writes one trace line when tracing is enabled.
func (m *Machine) tracef(format string, args ...any) {
	if m.Trace != nil {
		fmt.Fprintf(m.Trace, format+"\n", args...)
	}
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
	return m.callProc(id, in)
}

func (m *Machine) callProc(id string, in []term.Tuple) ([]term.Tuple, error) {
	proc, ok := m.Prog.Procs[id]
	if !ok {
		return nil, fmt.Errorf("vm: no procedure %q", id)
	}
	m.tracef("call %s with %d input tuple(s)", id, len(in))
	atomic.AddInt64(&m.Stats.ProcCalls, 1)
	m.callDepth++
	defer func() { m.callDepth-- }()
	if m.MaxDepth > 0 && m.callDepth > m.MaxDepth {
		return nil, &RuntimeError{ProcID: id, Err: m.govErr(ErrDepthLimit,
			fmt.Sprintf("call depth %d exceeds limit %d", m.callDepth, m.MaxDepth))}
	}
	m.frameID++
	f := &frame{m: m, proc: proc, id: m.frameID}
	defer f.drop()
	f.inRel = m.Temp.Ensure(f.relName("in"), proc.Bound)
	f.retRel = m.Temp.Ensure(f.relName("return"), proc.Bound+proc.Free)
	for _, t := range in {
		if len(t) != proc.Bound {
			return nil, &RuntimeError{ProcID: id, Err: fmt.Errorf(
				"input tuple arity %d, procedure expects %d", len(t), proc.Bound)}
		}
		f.inRel.Insert(t)
	}
	f.locals = make(map[string]storage.Rel, len(proc.Locals))
	for _, l := range proc.Locals {
		f.locals[l.Name] = m.Temp.Ensure(f.relName(l.Name), l.Arity)
	}
	if err := f.execInstrs(proc.Body); err != nil {
		return nil, &RuntimeError{ProcID: id, Err: err}
	}
	out := f.retRel.All()
	m.tracef("return from %s: %d tuple(s)", id, len(out))
	return out, nil
}

// frame is one procedure invocation.
type frame struct {
	m      *Machine
	proc   *plan.Proc
	id     uint64
	locals map[string]storage.Rel
	inRel  storage.Rel
	retRel storage.Rel
	// unchanged holds per-site version memory for the unchanged builtin.
	unchanged map[int]uint64
	returned  bool
	// scratch pools open-addressing hash tables (hashkit.go) across the
	// statements — and repeat-loop iterations — this frame executes;
	// statements run sequentially per frame, so no locking.
	scratch []*hashTable
	// hashBuf pools the bulk row-hash vector of dedupRows, under the same
	// sequential-per-frame contract.
	hashBuf []uint64
}

// relName builds the unique temp-store name for a frame-local relation.
func (f *frame) relName(local string) term.Value {
	return term.Atom("$frame", term.NewInt(int64(f.id)), term.NewString(local))
}

func (f *frame) drop() {
	f.m.Temp.Drop(f.relName("in"), f.inRel.Arity())
	f.m.Temp.Drop(f.relName("return"), f.retRel.Arity())
	for _, l := range f.proc.Locals {
		f.m.Temp.Drop(f.relName(l.Name), l.Arity)
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

// localRel resolves a frame-local relation by source name.
func (f *frame) localRel(name string) (storage.Rel, error) {
	switch name {
	case "in":
		return f.inRel, nil
	case "return":
		return f.retRel, nil
	}
	if r, ok := f.locals[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("no local relation %q", name)
}

// resolveRead resolves a relation reference for reading; a missing EDB
// relation reads as empty (nil Rel).
func (f *frame) resolveRead(ref plan.RelRef, regs []term.Value) (storage.Rel, error) {
	name, err := ref.Name.Build(regs)
	if err != nil {
		return nil, err
	}
	if ref.Space == plan.SpaceLocal {
		return f.localRel(name.Str())
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
	name, err := ref.Name.Build(regs)
	if err != nil {
		return nil, err
	}
	if ref.Space == plan.SpaceLocal {
		return f.localRel(name.Str())
	}
	return f.m.EDB.Ensure(name, ref.Arity), nil
}

// sortTuples orders tuples deterministically (builtin calls, output).
func sortTuples(ts []term.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
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
