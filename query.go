package gluenail

// Queries, prepared queries and procedure calls on the live machine, with
// the one tail that runs a compiled procedure on any machine (run); their
// logical and physical plans (EXPLAIN, EXPLAIN ANALYZE); and the counters
// the experiments read.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"
	"unsafe"

	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
	"gluenail/internal/vm"
)

// Result holds query answers: one row per solution, columns named by Vars
// in first-occurrence order, rows sorted.
type Result struct {
	Vars []string
	Rows [][]Value
}

// Query evaluates a goal conjunction in the main module's scope.
func (s *System) Query(goals string) (*Result, error) {
	return s.QueryInContext(context.Background(), "main", goals)
}

// QueryContext is Query under the caller's context: cancellation or an
// expired deadline aborts evaluation at a clean statement boundary with a
// *GovernorError (ErrCanceled / ErrTimeout). The configured
// Budget.Timeout, if any, also applies.
func (s *System) QueryContext(ctx context.Context, goals string) (*Result, error) {
	return s.QueryInContext(ctx, "main", goals)
}

// QueryIn evaluates a goal conjunction in the named module's scope.
func (s *System) QueryIn(module, goals string) (*Result, error) {
	return s.QueryInContext(context.Background(), module, goals)
}

// QueryInContext is QueryIn under the caller's context; see QueryContext.
func (s *System) QueryInContext(ctx context.Context, module, goals string) (*Result, error) {
	return (&Prepared{sys: s, module: module, goals: goals}).ExecuteContext(ctx)
}

// runQuery runs compiled query q on m — the live machine or a snapshot
// session's — and shapes its answers into a Result.
func runQuery(ctx context.Context, m *vm.Machine, timeout time.Duration, q compiledQuery) (*Result, error) {
	rows, err := run(ctx, m, timeout, q.prog, q.id, []term.Tuple{{}})
	if err != nil {
		return nil, err
	}
	res := &Result{Vars: q.vars}
	if len(rows) > 0 {
		res.Rows = rows
	}
	return res, nil
}

// run calls procedure id of prog on machine m with the input tuples in,
// under the wall-clock timeout (0 = none), and returns its answers sorted:
// the one tail of every query and call, live or snapshot. A snapshot
// session's machine may predate a recompile; the live machine already
// runs prog.
func run(ctx context.Context, m *vm.Machine, timeout time.Duration, prog *plan.Program, id string, in []term.Tuple) ([][]Value, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	m.Prog = prog
	tuples, err := m.CallProcContext(ctx, id, in)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(tuples, term.Tuple.Compare)
	// A term.Tuple is a []Value: the sorted vector is the answers' own.
	return *(*[][]Value)(unsafe.Pointer(&tuples)), nil
}

// Prepared is a reusable handle to a compiled query: the goal conjunction
// is parsed and compiled once, and every Execute reuses the compiled
// procedure — together with the prepared-plan cache, a repeated query
// pays parsing, compilation, and physical planning only once. A handle
// survives subsequent Load/Register calls: it transparently re-prepares
// itself when the program has been recompiled underneath it.
type Prepared struct {
	sys    *System
	module string
	goals  string
	// q is the compiled query, current while q.prog is the system's
	// program; guarded by the system's mu.
	q compiledQuery
}

// Prepare compiles a goal conjunction in the main module's scope into a
// reusable query handle.
func (s *System) Prepare(goals string) (*Prepared, error) {
	return s.PrepareIn("main", goals)
}

// PrepareIn is Prepare scoped to the named module.
func (s *System) PrepareIn(module, goals string) (*Prepared, error) {
	return value(s, needProgram, func() (*Prepared, error) {
		p := &Prepared{sys: s, module: module, goals: goals}
		if _, err := s.resolve(p); err != nil {
			return nil, err
		}
		return p, nil
	})
}

// Vars returns the query's output variable names in first-occurrence
// order (the columns of every Execute result).
func (p *Prepared) Vars() []string {
	vars, _ := value(p.sys, needLock, func() ([]string, error) { return p.q.vars, nil })
	return vars
}

// Execute runs the prepared query and returns its sorted answers.
func (p *Prepared) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext is Execute under the caller's context; see QueryContext
// for cancellation semantics. It resolves the query and runs it on the
// live machine.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	s := p.sys
	return value(s, needProgram, func() (*Result, error) {
		q, err := s.resolve(p)
		if err != nil {
			return nil, err
		}
		return runQuery(ctx, s.machine, s.cfg.budget.Timeout, q)
	})
}

// resolve returns p's compiled query, compiling the goal text as needed:
// each text is compiled once per compilation of the program (cached per
// module and text), and a handle prepared before a recompile re-prepares
// against the new program. Every query path — ad hoc, prepared, EXPLAIN,
// live or snapshot — resolves here, under do with needProgram.
func (s *System) resolve(p *Prepared) (compiledQuery, error) {
	prog := s.compiler.Program()
	if p.q.prog == prog {
		return p.q, nil
	}
	key := p.module + "\x00" + p.goals
	cq, cached := s.queries[key]
	if !cached {
		gs, err := parser.ParseGoals(p.goals)
		if err != nil {
			return compiledQuery{}, err
		}
		id, vars, err := s.compiler.CompileQuery(p.module, gs)
		if err != nil {
			return compiledQuery{}, err
		}
		cq = compiledQuery{prog: prog, id: id, vars: vars}
		s.queries[key] = cq
	}
	p.q = cq
	return cq, nil
}

// Call invokes an exported procedure with the given input tuples (nil for
// a procedure with no bound arguments) and returns its sorted results.
func (s *System) Call(module, proc string, in ...[]any) ([][]Value, error) {
	return s.CallContext(context.Background(), module, proc, in...)
}

// CallContext is Call under the caller's context: cancellation or an
// expired deadline aborts the procedure at a clean statement boundary
// with a *GovernorError — every statement committed before the abort
// stays durable, the interrupted statement's effects are discarded from
// the WAL. The configured Budget.Timeout, if any, also applies.
func (s *System) CallContext(ctx context.Context, module, proc string, in ...[]any) ([][]Value, error) {
	return value(s, needProgram, func() ([][]Value, error) {
		sym, err := s.procSym(module, proc)
		if err != nil {
			return nil, err
		}
		return s.call(ctx, sym, in)
	})
}

// procSym resolves an exported procedure in module's scope.
func (s *System) procSym(module, proc string) (*modsys.Symbol, error) {
	sym := s.lp.Resolve(module, proc)
	if sym == nil || sym.Class != modsys.ClassProc {
		return nil, fmt.Errorf("gluenail: no procedure %s.%s", module, proc)
	}
	return sym, nil
}

// call runs procedure sym on the live machine with the input rows in.
func (s *System) call(ctx context.Context, sym *modsys.Symbol, in [][]any) ([][]Value, error) {
	var lead []term.Tuple
	if sym.Bound == 0 {
		lead = []term.Tuple{{}}
	}
	var out [][]Value
	err := s.withRows(lead, in, func(tuples []term.Tuple) (err error) {
		out, err = run(ctx, s.machine, s.cfg.budget.Timeout, s.compiler.Program(), sym.Module+"."+sym.Name, tuples)
		return err
	})
	return out, err
}

// Explain returns the physical plan the statistics-driven planner would
// choose right now for a goal conjunction in the main module: per-segment
// operator order, access paths, and estimated cardinalities, plus the
// plans of every procedure the query transitively calls.
func (s *System) Explain(goals string) (string, error) {
	return s.ExplainIn("main", goals)
}

// ExplainIn is Explain scoped to the named module.
func (s *System) ExplainIn(module, goals string) (string, error) {
	return s.explainQuery(module, goals, false)
}

// ExplainAnalyze executes a goal conjunction in the main module and
// returns its physical plan annotated with the per-operator actual tuple
// counts observed during that execution (act_in/act_out) alongside the
// planner's estimates.
func (s *System) ExplainAnalyze(goals string) (string, error) {
	return s.ExplainAnalyzeIn("main", goals)
}

// ExplainAnalyzeIn is ExplainAnalyze scoped to the named module.
func (s *System) ExplainAnalyzeIn(module, goals string) (string, error) {
	return s.explainQuery(module, goals, true)
}

func (s *System) explainQuery(module, goals string, analyze bool) (string, error) {
	return value(s, needProgram, func() (string, error) {
		q, err := s.resolve(&Prepared{sys: s, module: module, goals: goals})
		if err != nil {
			return "", err
		}
		var exec func() error
		if analyze {
			exec = func() error {
				_, err := runQuery(context.Background(), s.machine, s.cfg.budget.Timeout, q)
				return err
			}
		}
		return s.explain(q.id, exec)
	})
}

// ExplainAnalyzeCall invokes an exported procedure like Call, then returns
// its physical plan annotated with the per-operator actual tuple counts
// observed during that invocation.
func (s *System) ExplainAnalyzeCall(module, proc string, in ...[]any) (string, error) {
	return value(s, needProgram, func() (string, error) {
		sym, err := s.procSym(module, proc)
		if err != nil {
			return "", err
		}
		return s.explain(sym.Module+"."+proc, func() error {
			_, err := s.call(context.Background(), sym, in)
			return err
		})
	})
}

// explain renders procedure id's physical plan followed by those of every
// procedure it transitively calls, in sorted order. With exec non-nil it
// is EXPLAIN ANALYZE: exec runs on the live machine with fresh profiles,
// the plans show what it observed, and the plan-cache and storage
// trailers follow.
func (s *System) explain(id string, exec func() error) (string, error) {
	analyze := exec != nil
	var beforeEDB, beforeScratch storage.Stats
	if analyze {
		s.machine.ResetProfiles()
		beforeEDB, beforeScratch = *s.edb.Stats(), *s.temp.Stats()
		if err := exec(); err != nil {
			return "", err
		}
	}
	var sb strings.Builder
	for i, pid := range append([]string{id}, plan.CalledProcs(s.compiler.Program(), id)...) {
		if i > 0 {
			sb.WriteByte('\n')
		}
		text, err := s.machine.ExplainPhysical(pid, analyze)
		if err != nil {
			return "", err
		}
		sb.WriteString(text)
	}
	if analyze {
		// ResetProfiles zeroed the plan-cache counters, so the line
		// describes exactly the analysed run.
		cs := s.machine.PlanCacheStats()
		sb.WriteString(fmt.Sprintf("\nplan cache: hits=%d misses=%d invalidations=%d\n",
			cs.Hits, cs.Misses, cs.Invalidations))
		sb.WriteString(s.storageTrailer(beforeEDB, beforeScratch))
	}
	return sb.String(), nil
}

// storageTrailer renders the disk engine's block-cache and bloom-filter
// counters for the execution the before-stats were captured at the start
// of (EXPLAIN ANALYZE), summed over the EDB and scratch stores. Empty
// unless a disk-resident store is configured — a main-memory system never
// touches these counters.
func (s *System) storageTrailer(beforeEDB, beforeScratch storage.Stats) string {
	if s.cfg.backend != "disk" && s.cfg.spillDir == "" {
		return ""
	}
	edb, scratch := *s.edb.Stats(), *s.temp.Stats()
	d := func(f func(*storage.Stats) int64) int64 {
		return (f(&edb) - f(&beforeEDB)) + (f(&scratch) - f(&beforeScratch))
	}
	return fmt.Sprintf("block cache: hits=%d misses=%d · bloom: checks=%d skips=%d · run index loads=%d\n",
		d(func(st *storage.Stats) int64 { return st.CacheHits }),
		d(func(st *storage.Stats) int64 { return st.BlocksRead }),
		d(func(st *storage.Stats) int64 { return st.BloomChecks }),
		d(func(st *storage.Stats) int64 { return st.BloomSkips }),
		d(func(st *storage.Stats) int64 { return st.RunIndexLoads }))
}

// ExplainProcPhysical renders a compiled procedure's physical plan (and
// those of its transitive callees) with current-statistics estimates.
func (s *System) ExplainProcPhysical(module, proc string) (string, error) {
	return s.explainProc(module, proc, true)
}

// ExplainProc returns a textual rendering of a procedure's compiled plan:
// pipeline segments, break placement, duplicate-elimination and index
// decisions. Generated NAIL! procedures use IDs like "main.tc@bf".
func (s *System) ExplainProc(module, proc string) (string, error) {
	return s.explainProc(module, proc, false)
}

// explainProc looks up compiled procedure module.proc and renders its
// physical plan (physical) or its compiled logical plan.
func (s *System) explainProc(module, proc string, physical bool) (string, error) {
	return value(s, needProgram, func() (string, error) {
		id := module + "." + proc
		p, ok := s.compiler.Program().Procs[id]
		switch {
		case !ok:
			return "", fmt.Errorf("gluenail: no compiled procedure %s", id)
		case physical:
			return s.explain(id, nil)
		}
		return plan.FormatProc(p), nil
	})
}

// Procs lists the IDs of all compiled procedures, including generated
// NAIL! procedures, in sorted order.
func (s *System) Procs() ([]string, error) {
	return value(s, needProgram, func() ([]string, error) {
		var ids []string
		for id := range s.compiler.Program().Procs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids, nil
	})
}

// Stats exposes executor and back-end counters for the experiments.
type Stats struct {
	Exec    vm.ExecStats
	EDB     storage.Stats
	Scratch storage.Stats
}

// PlanCacheStats holds the prepared-plan cache's hit/miss/invalidation
// counters.
type PlanCacheStats = plan.CacheStats

// PlanCacheStats returns a snapshot of the prepared-plan cache counters
// (all zero before the first query).
func (s *System) PlanCacheStats() PlanCacheStats {
	cs, _ := value(s, needLock, func() (cs PlanCacheStats, _ error) {
		if s.machine != nil {
			cs = s.machine.PlanCacheStats()
		}
		return cs, nil
	})
	return cs
}

// Stats returns a snapshot of the current counters.
func (s *System) Stats() Stats {
	st, _ := value(s, needLock, func() (Stats, error) {
		st := Stats{EDB: *s.edb.Stats(), Scratch: *s.temp.Stats()}
		if s.machine != nil {
			st.Exec = s.machine.Stats
		}
		return st, nil
	})
	return st
}
