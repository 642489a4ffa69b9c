// Execution governor: cooperative cancellation, resource budgets, and
// panic containment for the VM. Glue programs are Turing-complete
// (repeat/until, recursive procedures, §4), so a hostile or buggy program
// can loop forever, recurse without bound, or flood storage; the governor
// bounds all three and turns every trip into a typed, statement-labelled
// error instead of a hang, a stack overflow, or an OOM kill.
//
// The design keeps the per-row hot path untouched: checks run at
// instruction boundaries (which include every WAL commit point), at every
// repeat-loop iteration, and — so a single enormous segment cannot outrun
// the boundaries — once every govCheckRows emitted rows inside a
// segment. Each check is a non-blocking select on the context's cached
// Done channel plus two atomic loads for the tuple budget, cheap enough
// that E14 measures the overhead on a closure + group-by workload under
// 2%.
package vm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// Sentinel limit errors. GovernorError wraps exactly one of these, so
// callers classify failures with errors.Is.
var (
	// ErrCanceled reports that the context passed to CallProcContext was
	// canceled.
	ErrCanceled = errors.New("execution canceled")
	// ErrTimeout reports that the context's deadline expired.
	ErrTimeout = errors.New("execution deadline exceeded")
	// ErrMemoryBudget reports that a tuple or relation-cardinality budget
	// was exceeded.
	ErrMemoryBudget = errors.New("memory budget exceeded")
	// ErrDepthLimit reports that procedure calls nested deeper than
	// Machine.MaxDepth (unbounded recursion).
	ErrDepthLimit = errors.New("procedure call depth limit exceeded")
	// ErrLoopLimit reports that a repeat loop ran more than
	// Machine.LoopLimit iterations.
	ErrLoopLimit = errors.New("repeat loop iteration limit exceeded")
	// ErrPanic reports an internal VM/kernel panic contained at the
	// CallProcContext boundary. The machine is poisoned afterwards.
	ErrPanic = errors.New("internal execution panic")
	// ErrPoisoned rejects calls on a machine poisoned by an earlier panic.
	ErrPoisoned = errors.New("machine poisoned by earlier panic")
)

// govCheckRows is the emitted-row interval between in-segment governor
// checks: frequent enough that a runaway cross product is stopped long
// before it exhausts memory, rare enough that the per-row cost is one
// counter mask.
const govCheckRows = 8192

// DefaultMaxDepth is the procedure-call recursion depth the public API
// configures when no budget overrides it — deep enough for any reasonable
// program, shallow enough to fail cleanly long before the goroutine stack
// does.
const DefaultMaxDepth = 4096

// GovernorError is the typed failure the governor raises: Limit is the
// sentinel that tripped (errors.Is-able), Proc and Stmt locate the active
// procedure and statement label, and Detail carries the specifics (the
// budget numbers, the panic value).
type GovernorError struct {
	Limit  error
	Proc   string
	Stmt   string
	Detail string
}

func (e *GovernorError) Error() string {
	msg := e.Limit.Error()
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Proc != "" || e.Stmt != "" {
		loc := e.Proc
		if e.Stmt != "" {
			if loc != "" {
				loc += ", "
			}
			loc += fmt.Sprintf("statement %q", e.Stmt)
		}
		msg += " (in " + loc + ")"
	}
	return msg
}

func (e *GovernorError) Unwrap() error { return e.Limit }

// governor is the per-top-level-call check state: the cached Done channel
// (a non-blocking select per check), the context for deadline/cancel
// classification, and the tuple-budget baseline snapshotted from the
// storage insert counters at entry.
type governor struct {
	ctx       context.Context
	done      <-chan struct{}
	maxTuples int64
	base      int64
	edb, temp *storage.Stats
}

// tuplesUsed returns the tuples inserted (EDB + temp) since the governed
// call entered.
func (g *governor) tuplesUsed() int64 {
	n := g.edb.TuplesInserted()
	if g.temp != g.edb {
		n += g.temp.TuplesInserted()
	}
	return n - g.base
}

// installGovernor arms the governor for a top-level call. It is a no-op
// (nil governor, zero-cost checks) when neither a cancelable context nor a
// tuple budget is in play.
func (m *Machine) installGovernor(ctx context.Context) {
	done := ctx.Done()
	if done == nil && m.MaxTuples <= 0 {
		m.gov = nil
		return
	}
	g := &governor{
		ctx:       ctx,
		done:      done,
		maxTuples: m.MaxTuples,
		edb:       m.EDB.Stats(),
		temp:      m.Temp.Stats(),
	}
	if g.maxTuples > 0 {
		g.base = g.edb.TuplesInserted()
		if g.temp != g.edb {
			g.base += g.temp.TuplesInserted()
		}
	}
	m.gov = g
}

// pollGovernor is the cooperative check: nil governor means ungoverned
// (one pointer load), otherwise a non-blocking Done select and, when a
// tuple budget is set, two atomic counter loads.
func (m *Machine) pollGovernor() error {
	g := m.gov
	if g == nil {
		return nil
	}
	atomic.AddInt64(&m.Stats.GovernorChecks, 1)
	if g.done != nil {
		select {
		case <-g.done:
			limit := ErrCanceled
			if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
				limit = ErrTimeout
			}
			return m.govErr(limit, "")
		default:
		}
	}
	if g.maxTuples > 0 {
		if used := g.tuplesUsed(); used > g.maxTuples {
			return m.govErr(ErrMemoryBudget,
				fmt.Sprintf("%d tuples inserted, budget %d", used, g.maxTuples))
		}
	}
	return nil
}

// govErr builds a GovernorError at the current execution location.
func (m *Machine) govErr(limit error, detail string) error {
	return &GovernorError{Limit: limit, Proc: m.curProc, Stmt: m.curStmt, Detail: detail}
}

// checkRelBudget enforces the max-relation-cardinality budget after a
// write lands in rel. A relation that spills rows beyond the budget to
// disk (storage.MemResident — the spill-backed scratch tables) is charged
// its resident rows, not its total cardinality: its flush threshold is
// capped at the budget, so instead of aborting with ErrMemoryBudget it
// keeps going out of core. Fully memory-resident relations (the default)
// are charged Len as before.
func (f *frame) checkRelBudget(rel storage.Rel) error {
	max := f.m.MaxRelRows
	if max <= 0 || rel == nil {
		return nil
	}
	rows := rel.Len()
	if mr, ok := rel.(storage.MemResident); ok {
		rows = mr.MemRows()
	}
	if rows <= max {
		return nil
	}
	// A frame relation is named by its source name, not its temp name.
	name := rel.Name()
	if i := slices.Index(f.rels, rel); i >= 0 {
		name = term.NewString(f.proc.Slot(i).Name)
	}
	return f.m.govErr(ErrMemoryBudget,
		fmt.Sprintf("relation %v holds %d rows in memory, budget %d", name, rows, max))
}

// abortPoint mirrors commitPoint for the failure path: when a top-level
// statement aborts (error, cancel, budget trip, or contained panic), the
// Abort hook discards the statement's partial EDB deltas from the WAL
// recorder so the next commit seals only whole statements — durable state
// stays a statement-boundary prefix.
func (m *Machine) abortPoint() {
	if m.Abort != nil && m.callDepth == 1 {
		m.Abort()
	}
}
