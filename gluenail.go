// Package gluenail is a deductive database system reproducing Phipps, Derr
// & Ross, "Glue-Nail: A Deductive Database System" (SIGMOD 1991). It
// couples two tightly knit languages — the declarative NAIL! rule language
// and the procedural Glue language — over a main-memory relational back
// end:
//
//   - NAIL! rules define IDB predicates, compiled on demand into Glue
//     procedures (semi-naive evaluation, magic sets for bound calls,
//     stratified negation);
//   - Glue procedures perform set-at-a-time computation with assignment
//     statements, repeat/until loops, aggregation, EDB updates, and I/O;
//   - HiLog-style higher-order syntax gives both languages set-valued
//     attributes (predicate names as values) with first-order semantics;
//   - the back end stores duplicate-free ground relations with adaptive
//     run-time index creation and disk persistence for the EDB.
//
// A System loads modules, answers queries, calls procedures, and asserts
// EDB facts:
//
//	sys := gluenail.New()
//	sys.Load(`
//	    edb edge(X,Y);
//	    tc(X,Y) :- edge(X,Y).
//	    tc(X,Z) :- tc(X,Y) & edge(Y,Z).
//	`)
//	sys.Assert("edge", []any{1, 2}, []any{2, 3})
//	res, _ := sys.Query("tc(1, X)")
package gluenail

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/storage/fsio"
	_ "gluenail/internal/storage/mem" // registers the "mem" backend
	"gluenail/internal/term"
	"gluenail/internal/vm"
	"gluenail/internal/wal"
)

// Value is a ground Glue-Nail term: an integer, float, string/atom, or
// HiLog compound term.
type Value = term.Value

// Int builds an integer value.
func Int(i int64) Value { return term.NewInt(i) }

// Float builds a float value.
func Float(f float64) Value { return term.NewFloat(f) }

// Str builds a string/atom value.
func Str(s string) Value { return term.Intern(s) }

// Compound builds a compound term with an atom functor, e.g.
// Compound("students", Str("cs99")) is the set name students(cs99).
func Compound(functor string, args ...Value) Value {
	return term.Atom(functor, args...)
}

// System is a Glue-Nail database instance: loaded modules, an EDB store,
// and an executor.
//
// A System is safe for concurrent use: every public operation serializes
// on an internal mutex, so callers from multiple goroutines interleave at
// operation granularity (the single-writer model — writes and live-view
// queries take turns). Concurrent *reads* that must not wait on writers
// go through Snapshot, which captures an immutable statement-boundary
// view and executes on a private machine outside the lock.
type System struct {
	// mu serializes all public operations on the live system; only do
	// takes it. Snapshot sessions hold it only while capturing or
	// compiling, never while executing.
	mu       sync.Mutex
	cfg      config
	registry *vm.Registry
	edb      storage.Store
	// eng is edb's storage.Backend face — the multi-version engine
	// (main-memory or disk) behind the EDB; nil only for the layered
	// baseline. Snapshots, CSN advancement, and Close need it.
	eng  storage.Backend
	temp storage.Scratch
	// sources are the loaded programs, parsed once by Load (which also
	// moved their EDB facts into the store); compilation reads them and
	// never mutates them.
	sources  []*ast.Program
	compiled bool
	machine  *vm.Machine
	compiler *plan.Compiler
	lp       *modsys.Program
	// queries caches compiled query procedures by module and goal text;
	// reset whenever the program is recompiled.
	queries map[string]compiledQuery
	// Durability state: wlog/recorder are non-nil when the EDB is backed
	// by a write-ahead log; durErr records a failed startup (every
	// operation then reports it).
	wlog     *wal.Log
	recorder *wal.Recorder
	durErr   error
	// rowVals/rowTuples are the scratch Assert, Retract and Call convert
	// their rows in (withRows): relations copy the rows they keep, so one
	// buffer serves every call under mu.
	rowVals   []term.Value
	rowTuples []term.Tuple
}

// compiledQuery is a query procedure and its answer variables. prog is the
// compiled program the procedure belongs to: a recompile (new Load or
// Register) replaces the program, which retires every compiledQuery of the
// old one.
type compiledQuery struct {
	prog *plan.Program
	id   string
	vars []string
}

// New creates an empty system.
func New(opts ...Option) *System {
	cfg := config{
		out: os.Stdout,
		in:  strings.NewReader(""),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.fs == nil {
		cfg.fs = fsio.OS
	}
	baseErr := applyBaseline(&cfg)
	s := &System{
		cfg:      cfg,
		registry: vm.NewRegistry(),
		durErr:   baseErr,
	}
	// EDB store: the configured backend. Dir-backed engines live under
	// <durDir>/store so the WAL (segments directly in durDir) and the
	// engine's runs never collide; without durability they get a private
	// temporary directory removed on Close.
	if cfg.layered {
		s.edb = storage.NewLayeredStore(storage.IndexAdaptive)
	} else {
		name := cfg.backend
		if name == "" {
			name = "mem"
		}
		var dir string
		if cfg.durDir != "" && name != "mem" {
			dir = filepath.Join(cfg.durDir, "store")
		}
		st, err := storage.OpenBackend(name, storage.BackendConfig{
			Dir:           dir,
			Policy:        storage.IndexAdaptive,
			CacheBlocks:   cfg.cacheBlocks,
			NoCompress:    cfg.noCompress,
			FS:            cfg.fs,
			ScrubInterval: cfg.scrubEvery,
		})
		if err != nil {
			s.durErr = fmt.Errorf("gluenail: opening %s storage backend: %w", name, err)
			st = storage.NewMemStore(storage.IndexAdaptive)
		}
		s.edb = st
	}
	s.eng, _ = s.edb.(storage.Backend)
	// Scratch store: in-memory unless WithSpill routes frame-local scratch
	// tables through an out-of-core spill store.
	temp, err := newScratchStore(&cfg)
	if err != nil {
		if s.durErr == nil {
			s.durErr = fmt.Errorf("gluenail: opening spill store in %s: %w", cfg.spillDir, err)
		}
		temp = storage.NewMemStore(storage.IndexAdaptive)
	}
	s.temp = temp
	if s.durErr == nil && cfg.durDir != "" {
		log, err := wal.Open(cfg.durDir, s.edb, wal.Options{
			Fsync:           cfg.fsync,
			CheckpointBytes: cfg.ckptBytes,
			FS:              cfg.fs,
		})
		if err != nil {
			s.durErr = fmt.Errorf("gluenail: opening durable EDB in %s: %w", cfg.durDir, err)
		} else {
			s.wlog = log
			s.recorder = wal.NewRecorder()
			s.edb.SetJournal(s.recorder)
		}
	}
	return s
}

// newScratchStore builds one scratch allocator (of frame relations) under
// the configured spill policy: the live machine and every snapshot session
// get their own. With WithSpill, scratch tables live on an ephemeral disk
// store whose in-memory threshold is the smaller of the spill budget and
// the Budget.MaxRelRows cardinality budget, so the governor's relation
// check charges resident rows and out-of-core iteration replaces the
// ErrMemoryBudget abort.
func newScratchStore(cfg *config) (storage.Scratch, error) {
	if cfg.layered {
		return storage.NewLayeredStore(storage.IndexAdaptive), nil
	}
	if cfg.spillDir == "" {
		return storage.NewMemStore(storage.IndexAdaptive), nil
	}
	if err := disk.CheckDirOverlap(cfg.durDir, cfg.spillDir); err != nil {
		return nil, err
	}
	budget := cfg.spillRows
	if mrr := cfg.budget.MaxRelRows; mrr > 0 && (budget <= 0 || mrr < budget) {
		budget = mrr
	}
	return disk.NewScratchFS(cfg.fs, cfg.spillDir, budget, storage.IndexAdaptive, nil)
}

// Open creates a System whose EDB is durably persisted under dir (see
// WithDurability), recovering any existing state first. The returned
// system must be Closed to release the log; a system abandoned without
// Close loses at most the unsynced fsync batch, never consistency.
func Open(dir string, opts ...Option) (*System, error) {
	s := New(append([]Option{WithDurability(dir)}, opts...)...)
	if s.durErr != nil {
		// Close releases the engines the failed startup opened; its error
		// is the startup error returned here.
		_ = s.Close()
		return nil, s.durErr
	}
	return s, nil
}

// need says what an operation requires of do beyond the lock.
type need uint8

const (
	// needLock is the lock alone, even on a system whose startup failed:
	// Close, which must still release the engines, and the counters.
	needLock need = iota
	// needStore is a system whose startup succeeded: the EDB, the
	// registry and the loaded sources.
	needStore
	// needProgram is needStore plus the compiled program and the live
	// machine, compiling the loaded sources first if they changed.
	needProgram
)

// do is the one way into a System: every exported System, Prepared and
// Snapshot operation runs its work as op here (a snapshot session through
// its own gate, Snapshot.do, which enters do only for the steps that need
// the live program). do holds mu for the whole of op, so operations
// interleave whole — the single writer of §10. Unless n is needLock it
// fails with the startup error of a system whose startup failed; with
// needProgram it compiles first. A storage-fault panic out of op becomes
// op's typed error, and the failed statement's WAL deltas are discarded.
// op does not escape, so the closures callers pass stay on the stack and
// the entry point costs no allocation.
func (s *System) do(n need, op func() error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer guardStorage(&err, s.recorder)
	if n >= needStore && s.durErr != nil {
		return s.durErr
	}
	if n == needProgram {
		if err := s.ensure(); err != nil {
			return err
		}
	}
	return op()
}

// value runs op through do and returns its value: the adapter for the
// operations that return one.
func value[T any](s *System, n need, op func() (T, error)) (v T, err error) {
	err = s.do(n, func() (err error) {
		v, err = op()
		return err
	})
	return v, err
}

// guardStorage converts a storage-fault panic — a store operation that
// bypasses the VM hitting ErrDiskFault or ErrCorrupt — into its typed
// error in *err. The statement's partial WAL deltas in rec (nil for a
// snapshot's read-only store) are discarded first, so the durable log
// still ends at the previous statement boundary; any other panic is
// re-raised.
func guardStorage(err *error, rec *wal.Recorder) {
	r := recover()
	if r == nil {
		return
	}
	perr, ok := r.(error)
	if !ok || (!errors.Is(perr, storage.ErrDiskFault) && !errors.Is(perr, storage.ErrCorrupt)) {
		panic(r)
	}
	if rec != nil {
		rec.Discard()
	}
	*err = perr
}

// commit seals the EDB deltas captured since the previous commit point
// into one atomic WAL batch (checkpointing first if the log has grown
// past the threshold), then advances the commit sequence number so
// snapshots taken from here on see the statement's effects. Without
// durability only the CSN advances; mutations stamped before an advance
// belong to the CSN it publishes.
func (s *System) commit() error {
	if s.wlog != nil {
		if ops := s.recorder.Take(); len(ops) > 0 {
			if err := s.wlog.Commit(ops); err != nil {
				return err
			}
			if s.wlog.ShouldCheckpoint() {
				if err := s.wlog.Checkpoint(s.edb); err != nil {
					return err
				}
			}
		}
	}
	if s.eng != nil {
		s.eng.AdvanceCSN()
	}
	return nil
}

// Close commits any pending deltas, syncs, closes the write-ahead log,
// and shuts down the storage engines (a disk-backed EDB stops its
// compactor and releases its run files; a spill store removes its scratch
// directory). A main-memory system without durability closes as a no-op.
// The system must not be used after Close.
func (s *System) Close() error {
	return s.do(needLock, func() error {
		err := s.durErr
		if err == nil && s.wlog != nil {
			err = s.commit()
			if cerr := s.wlog.Close(); err == nil {
				err = cerr
			}
			s.edb.SetJournal(nil)
			s.wlog, s.recorder = nil, nil
		}
		if cerr := closeStores(s.eng, s.temp); err == nil {
			err = cerr
		}
		return err
	})
}

// Register adds a foreign (Go) procedure callable from Glue as a subgoal:
// bound/free give the argument split, fixed marks side-effecting
// procedures whose position in a statement must be preserved. fn receives
// the distinct input tuples and returns full (bound+free) result tuples;
// the input rows are fn's own, so it may keep them. Procedures must be
// registered before the code referencing them is compiled (i.e., before
// the first query or call after Load).
func (s *System) Register(name string, bound, free int, fixed bool,
	fn func(in [][]Value) ([][]Value, error)) error {
	return s.do(needStore, func() error {
		err := s.registry.Register(name, plan.BuiltinSig{Bound: bound, Free: free, Fixed: fixed},
			func(_ *vm.Machine, in []term.Tuple) ([]term.Tuple, error) {
				// The executor lends its inputs from reused scratch: copy
				// them into one slab of fn's own.
				rows := make([][]Value, len(in))
				slab := make([]Value, 0, len(in)*bound)
				for i, t := range in {
					slab = append(slab, t...)
					rows[i] = slab[len(slab)-len(t) : len(slab) : len(slab)]
				}
				out, err := fn(rows)
				if err != nil {
					return nil, err
				}
				res := make([]term.Tuple, len(out))
				for i, r := range out {
					res[i] = term.Tuple(r)
				}
				return res, nil
			})
		if err == nil {
			s.compiled = false
		}
		return err
	})
}

// Load adds Glue/NAIL! source (one or more modules, or a bare script that
// becomes the implicit main module). The source is parsed here, so syntax
// errors surface at once, and the tree is kept for compilation, which is
// deferred to first use. Ground facts for relations the source declares
// edb move into the store now, as one committed statement: each Load
// inserts them exactly once, so a fact retracted later stays retracted
// when the program is recompiled.
func (s *System) Load(src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	var facts []modsys.Fact
	for _, m := range prog.Modules {
		facts = append(facts, modsys.ExtractEDBFacts(m)...)
	}
	return s.do(needStore, func() error {
		if len(facts) > 0 {
			for _, fact := range facts {
				s.edb.Ensure(term.Intern(fact.Name), len(fact.Tuple)).Insert(fact.Tuple)
			}
			if err := s.commit(); err != nil {
				return err
			}
		}
		s.sources = append(s.sources, prog)
		s.compiled = false
		return nil
	})
}

// LoadContext is Load under the caller's context: an already-cancelled or
// expired context fails with a *GovernorError before any source is
// accepted, so batch loaders can share one deadline across loads and
// queries.
func (s *System) LoadContext(ctx context.Context, src string) error {
	if err := ctxGovErr(ctx); err != nil {
		return err
	}
	return s.Load(src)
}

// ctxGovErr converts a context failure into the governor's typed error.
func ctxGovErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &GovernorError{Limit: ErrTimeout}
	default:
		return &GovernorError{Limit: ErrCanceled}
	}
}

// LoadFile loads source from a file.
func (s *System) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.Load(string(data))
}

// ensure links and compiles the loaded sources, if they changed since the
// last compile, and builds the live machine over the result. Called by do.
func (s *System) ensure() error {
	if s.compiled {
		return nil
	}
	prog := &ast.Program{}
	mainAt := -1
	for _, p := range s.sources {
		for _, m := range p.Modules {
			switch {
			case m.Name != "main":
				prog.Modules = append(prog.Modules, m)
			case mainAt < 0:
				mainAt = len(prog.Modules)
				prog.Modules = append(prog.Modules, m)
			default:
				prog.Modules[mainAt] = mergeModules(prog.Modules[mainAt], m)
			}
		}
	}
	if len(prog.Modules) == 0 {
		prog.Modules = append(prog.Modules, &ast.Module{Name: "main"})
	}
	lp, err := modsys.LinkWith(prog, modsys.Options{Known: s.registry.Has})
	if err != nil {
		return err
	}
	opts := s.cfg.planOpts
	opts.Builtin = s.registry.Sig
	compiler := plan.NewCompiler(lp, opts)
	if err := compiler.CompileAll(); err != nil {
		return err
	}
	s.lp = lp
	s.compiler = compiler
	s.machine = s.newMachine(s.edb, s.temp, s.cfg.out)
	s.machine.In = bufio.NewReader(s.cfg.in)
	s.machine.Trace = s.cfg.trace
	// Commit runs at every top-level statement boundary: it seals WAL
	// deltas (when durable) and always advances the commit sequence
	// number, publishing the statement to future snapshots.
	s.machine.Commit = s.commit
	if s.recorder != nil {
		// A failed or cancelled top-level statement discards its partial
		// WAL deltas, so the next commit seals only whole statements and
		// recovery stays a statement-boundary prefix.
		s.machine.Abort = s.recorder.Discard
	}
	s.queries = make(map[string]compiledQuery)
	s.compiled = true
	return nil
}

// mergeModules returns a new module holding a's items followed by b's.
// Neither input changes (a's slices are clipped, so appending copies), so
// the parsed trees can be merged again by the next recompile.
func mergeModules(a, b *ast.Module) *ast.Module {
	m := *a
	m.EDB = append(slices.Clip(a.EDB), b.EDB...)
	m.Exports = append(slices.Clip(a.Exports), b.Exports...)
	m.Imports = append(slices.Clip(a.Imports), b.Imports...)
	m.Procs = append(slices.Clip(a.Procs), b.Procs...)
	m.Rules = append(slices.Clip(a.Rules), b.Rules...)
	return &m
}

// newMachine builds a machine over the compiled program and the given
// stores, tuned to the configured budget, writing write/nl output to out:
// the one builder of the live machine (ensure) and every snapshot
// session's.
func (s *System) newMachine(edb storage.Store, temp storage.Scratch, out io.Writer) *vm.Machine {
	m := vm.New(s.compiler.Program(), edb, temp, s.registry)
	s.tuneMachine(m, s.cfg.budget)
	m.Out = out
	return m
}

// tuneMachine applies the configured execution knobs and the budget b to a
// machine: shared by the live machine (the configured Budget) and every
// snapshot session's private machine (the session's own budget).
func (s *System) tuneMachine(m *vm.Machine, b Budget) {
	m.Materialized = s.cfg.materialized
	m.LoopLimit = limit(b.MaxLoopIters, defaultLoopLimit)
	m.MaxDepth = limit(b.MaxDepth, vm.DefaultMaxDepth)
	m.MaxTuples = b.MaxTuples
	m.MaxRelRows = b.MaxRelRows
	// Textual and greedy orderings are ablations: both must execute the
	// compiled op order, so either disables run-time reordering.
	m.StatsOrdering = !s.cfg.greedyOrder && !s.cfg.planOpts.NoReorder
}

// limit maps a Budget limit to the machine's: zero keeps the default def,
// and a negative value lifts the limit (0 on the machine).
func limit(v, def int) int {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return def
}
