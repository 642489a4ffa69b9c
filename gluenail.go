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
	"sort"
	"strings"
	"sync"
	"time"

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

// config holds what the options set. The fields from layered through
// planOpts are the paper baselines: only the baselines table writes them,
// and the default system leaves them all zero.
type config struct {
	out          io.Writer
	in           io.Reader
	trace        io.Writer
	baseline     string
	layered      bool
	materialized bool
	greedyOrder  bool
	planOpts     plan.Options
	durDir       string
	fsync        FsyncMode
	ckptBytes    int64
	budget       Budget
	backend      string
	spillDir     string
	spillRows    int
	cacheBlocks  int
	noCompress   bool
	fs           fsio.FS
	scrubEvery   time.Duration
}

// Option configures a System.
type Option func(*config)

// WithOutput directs write/nl output.
func WithOutput(w io.Writer) Option { return func(c *config) { c.out = w } }

// WithInput supplies read_line input.
func WithInput(r io.Reader) Option { return func(c *config) { c.in = r } }

// WithBackend selects the EDB storage engine by registered name: "mem"
// (the default tailored main-memory store) or "disk" (the index-organized
// disk engine — relations live in immutable on-disk runs plus an in-memory
// memtable, with a block cache and background compaction, so the EDB may
// exceed RAM). Combined with Open/WithDurability the disk engine keeps its
// runs under <dir>/store and composes with the write-ahead log: commits
// append to the WAL as usual and checkpoints flush the memtables to runs
// instead of serializing the whole store. Without durability a disk-backed
// system uses a private temporary directory removed on Close.
func WithBackend(name string) Option { return func(c *config) { c.backend = name } }

// WithSpill enables out-of-core execution: procedure-frame scratch tables
// (semi-naive deltas, supplementary relations, locals) live on an
// ephemeral disk store under dir and spill to disk runs once a relation
// holds budgetRows in memory (0 = a default threshold), instead of
// aborting with ErrMemoryBudget when a Budget.MaxRelRows cardinality
// budget trips. With both configured, the effective in-memory threshold is
// the smaller of budgetRows and MaxRelRows. Stale spill directories left
// by crashed processes are swept on startup; dir must not coincide with or
// nest the durability directory.
func WithSpill(dir string, budgetRows int) Option {
	return func(c *config) { c.spillDir = dir; c.spillRows = budgetRows }
}

// WithBlockCache caps the disk engine's decoded-block cache (entries, not
// bytes; a block holds up to 256 decoded rows). 0 selects the engine
// default; ignored by the main-memory backend.
func WithBlockCache(blocks int) Option {
	return func(c *config) { c.cacheBlocks = blocks }
}

// WithBlockCompression toggles the disk engine's packed block encoding
// (on by default). Off stores run blocks raw; reads handle both forms, so
// the setting may change between opens of the same store.
func WithBlockCompression(on bool) Option {
	return func(c *config) { c.noCompress = !on }
}

// FS is the filesystem seam every persistent artifact (WAL segments,
// snapshots, disk-engine runs, manifest, intern file, spill runs) is
// written through; see the storage/fsio package. The default is the real
// filesystem; fault-injection tests swap in a scripted implementation.
type FS = fsio.FS

// WithFS routes all of the system's file I/O through fs (nil keeps the
// real filesystem). The seam covers the write-ahead log, checkpoints, the
// disk engine's runs and manifest, and spill scratch stores — so a single
// injected fault surface exercises every persistence path.
func WithFS(fs FS) Option { return func(c *config) { c.fs = fs } }

// WithScrubInterval starts a background scrubber on a disk-backed EDB:
// every interval it verifies one stored run's checksums at low priority
// and reports findings to stderr, so silent corruption is detected while
// the data is still redundant enough to heal (see System.ScrubEDB).
// Zero (the default) disables background scrubbing; ignored by the
// main-memory backend.
func WithScrubInterval(d time.Duration) Option {
	return func(c *config) { c.scrubEvery = d }
}

// WithBaseline runs the system as one of the baselines the paper measures
// its mechanisms against (§5, §9, §10), each switching one mechanism off:
//
//   - "materialized": materialize every supplementary relation instead of
//     pipelining (E2)
//   - "no-dedup": no duplicate elimination at pipeline breaks (E3)
//   - "no-reorder": textual subgoal order, at compile and at run time (A1)
//   - "greedy-order": the compiler's static greedy order, with no
//     statistics-driven reordering at run time (E12)
//   - "no-magic": no magic-set rewriting of bound NAIL! calls (E9)
//   - "naive": naive instead of semi-naive recursion (E5)
//   - "no-narrow": no compile-time narrowing of HiLog dispatch (E6)
//   - "layered": every relation, temporaries included, on the simulated
//     DBMS-layered store (E8)
//
// A later WithBaseline replaces an earlier one, and "" is the default
// system. An unknown name fails Open, and every operation of a New
// system, with an error listing the valid names.
func WithBaseline(name string) Option { return func(c *config) { c.baseline = name } }

// baselines maps each WithBaseline name to the config fields it sets. It
// is the only list of the names.
var baselines = map[string]func(*config){
	"materialized": func(c *config) { c.materialized = true },
	"no-dedup":     func(c *config) { c.planOpts.NoDedup = true },
	"no-reorder":   func(c *config) { c.planOpts.NoReorder = true },
	"greedy-order": func(c *config) { c.greedyOrder = true },
	"no-magic":     func(c *config) { c.planOpts.NoMagic = true },
	"naive":        func(c *config) { c.planOpts.Naive = true },
	"no-narrow":    func(c *config) { c.planOpts.NoNarrow = true },
	"layered":      func(c *config) { c.layered = true },
}

// applyBaseline sets the fields of c's baseline, if it names one.
func applyBaseline(c *config) error {
	if c.baseline == "" {
		return nil
	}
	set, ok := baselines[c.baseline]
	if !ok {
		return fmt.Errorf("gluenail: unknown baseline %q (valid: %s)",
			c.baseline, strings.Join(baselineNames(), ", "))
	}
	set(c)
	return nil
}

// baselineNames returns the baseline names, sorted.
func baselineNames() []string {
	names := make([]string, 0, len(baselines))
	for name := range baselines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Execution-governor errors, re-exported for errors.Is classification.
// Every governed failure is a *GovernorError wrapping exactly one of
// these sentinels and carrying the active procedure and statement label.
var (
	ErrCanceled     = vm.ErrCanceled     // the call's context was canceled
	ErrTimeout      = vm.ErrTimeout      // the wall-clock budget expired
	ErrMemoryBudget = vm.ErrMemoryBudget // a tuple or cardinality budget tripped
	ErrDepthLimit   = vm.ErrDepthLimit   // procedure calls nested too deep
	ErrLoopLimit    = vm.ErrLoopLimit    // a repeat loop ran too long
	ErrPanic        = vm.ErrPanic        // an internal panic was contained
	ErrPoisoned     = vm.ErrPoisoned     // the system was poisoned by a panic
)

// Storage-fault sentinels, re-exported for errors.Is classification. A
// failed disk write degrades the EDB to read-only (queries keep serving
// from the durable base; writes fail with ErrDiskFault until the store is
// reopened); detected checksum damage fails the touching operation with
// ErrCorrupt rather than returning a wrong answer. Neither poisons the
// system.
var (
	ErrDiskFault = storage.ErrDiskFault // an I/O operation failed; store is read-only degraded
	ErrCorrupt   = storage.ErrCorrupt   // stored bytes failed checksum verification
)

// GovernorError is the typed failure raised by the execution governor;
// see the vm package for field documentation.
type GovernorError = vm.GovernorError

// DefaultMaxDepth is the procedure-call recursion limit applied when no
// budget overrides it.
const DefaultMaxDepth = vm.DefaultMaxDepth

// Budget bounds the resources one governed call may consume. The zero
// value of each field keeps that dimension at its default; a negative
// MaxDepth or MaxLoopIters lifts the corresponding default limit
// entirely.
type Budget struct {
	// Timeout is the wall-clock budget per Query/Call (0 = none): the
	// governor cancels the call's context after this duration and the
	// call fails with ErrTimeout at the next cooperative check.
	Timeout time.Duration
	// MaxTuples bounds the total tuples inserted (EDB + scratch) during
	// one call (0 = unlimited), enforced from the storage layer's insert
	// counters; exceeding it fails with ErrMemoryBudget.
	MaxTuples int64
	// MaxRelRows bounds the cardinality of any single relation the
	// program writes (0 = unlimited); exceeding it fails with
	// ErrMemoryBudget naming the relation.
	MaxRelRows int
	// MaxDepth bounds procedure-call nesting (0 = DefaultMaxDepth,
	// negative = unlimited); exceeding it fails with ErrDepthLimit.
	MaxDepth int
	// MaxLoopIters bounds repeat-loop iterations (0 = defaultLoopLimit,
	// one million; negative = unlimited); exceeding it fails with
	// ErrLoopLimit.
	MaxLoopIters int
}

// defaultLoopLimit bounds repeat-loop iterations when the budget leaves
// MaxLoopIters zero.
const defaultLoopLimit = 1_000_000

// WithBudget installs resource budgets enforced by the execution
// governor. Budgeted calls fail with a typed *GovernorError instead of
// hanging or exhausting memory; the system stays usable afterwards.
func WithBudget(b Budget) Option { return func(c *config) { c.budget = b } }

// WithTrace streams one line per statement execution and procedure call to
// w, narrating the supplementary-relation evaluation of §3.2.
func WithTrace(w io.Writer) Option { return func(c *config) { c.trace = w } }

// FsyncMode selects when write-ahead-log commits are forced to disk; see
// the Fsync* constants.
type FsyncMode = wal.FsyncMode

// Fsync modes for WithFsync.
const (
	// FsyncBatch (the default) group-commits: the log syncs once a batch
	// of bytes or commits has accumulated, and always on Close and
	// Checkpoint. A crash loses at most the last unsynced batch of
	// statements, never consistency.
	FsyncBatch = wal.FsyncBatch
	// FsyncAlways syncs after every top-level statement.
	FsyncAlways = wal.FsyncAlways
	// FsyncNever leaves flushing to the OS; Close still syncs.
	FsyncNever = wal.FsyncNever
)

// WithDurability stores the EDB durably under dir. Committed EDB deltas
// are appended to a checksummed write-ahead log at top-level statement
// boundaries; snapshots checkpoint the log when it grows past the
// threshold (or on Checkpoint); re-opening the directory recovers the
// EDB to a statement-boundary-consistent state after a crash. Prefer
// Open, which surfaces recovery errors immediately — with New, a
// recovery failure is reported by every subsequent operation.
func WithDurability(dir string) Option { return func(c *config) { c.durDir = dir } }

// WithFsync selects the WAL fsync mode (default FsyncBatch); only
// meaningful together with WithDurability.
func WithFsync(mode FsyncMode) Option { return func(c *config) { c.fsync = mode } }

// WithCheckpointThreshold sets the WAL size in bytes past which a
// snapshot checkpoint is taken automatically at the next commit point
// (0 = default 8 MiB; negative disables automatic checkpoints).
func WithCheckpointThreshold(bytes int64) Option {
	return func(c *config) { c.ckptBytes = bytes }
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
	// mu serializes all public operations on the live system. Snapshot
	// sessions hold it only while capturing or compiling, never while
	// executing.
	mu       sync.Mutex
	cfg      config
	registry *vm.Registry
	edb      storage.Store
	// eng is edb's storage.Backend face — the multi-version engine
	// (main-memory or disk) behind the EDB; nil only for the layered
	// baseline. Snapshots, CSN advancement, and Close need it.
	eng  storage.Backend
	temp storage.Store
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
	// by a write-ahead log; durErr records a failed recovery (every
	// operation then reports it).
	wlog     *wal.Log
	recorder *wal.Recorder
	durErr   error
	// rowVals/rowTuples are the scratch Assert, Retract and Call convert
	// their rows in (scratchRows, assertGroup): relations copy the rows
	// they keep, so one buffer serves every call under mu.
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

// newScratchStore builds one scratch (temporary-relation) store under the
// configured spill policy: the live machine and every snapshot session get
// their own. With WithSpill, scratch tables live on an ephemeral disk
// store whose in-memory threshold is the smaller of the spill budget and
// the Budget.MaxRelRows cardinality budget, so the governor's relation
// check charges resident rows and out-of-core iteration replaces the
// ErrMemoryBudget abort.
func newScratchStore(cfg *config) (storage.Store, error) {
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
		return nil, s.durErr
	}
	return s, nil
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

// Checkpoint serializes the EDB into a fresh snapshot and rotates the
// write-ahead log. It may only be called between statements (never from
// inside a Register callback). Without durability it reports an error.
func (s *System) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durErr != nil {
		return s.durErr
	}
	if s.wlog == nil {
		return fmt.Errorf("gluenail: Checkpoint requires durability (use Open or WithDurability)")
	}
	if err := s.commit(); err != nil {
		return err
	}
	return s.wlog.Checkpoint(s.edb)
}

// Close commits any pending deltas, syncs, closes the write-ahead log,
// and shuts down the storage engines (a disk-backed EDB stops its
// compactor and releases its run files; a spill store removes its scratch
// directory). A main-memory system without durability closes as a no-op.
// The system must not be used after Close.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	switch {
	case s.durErr != nil:
		err = s.durErr
	case s.wlog != nil:
		err = s.commit()
		if cerr := s.wlog.Close(); err == nil {
			err = cerr
		}
		s.edb.SetJournal(nil)
		s.wlog, s.recorder = nil, nil
	}
	if s.eng != nil {
		if cerr := s.eng.Close(); err == nil {
			err = cerr
		}
	}
	if c, ok := s.temp.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Register adds a foreign (Go) procedure callable from Glue as a subgoal:
// bound/free give the argument split, fixed marks side-effecting
// procedures whose position in a statement must be preserved. fn receives
// the distinct input tuples and returns full (bound+free) result tuples.
// Procedures must be registered before the code referencing them is
// compiled (i.e., before the first query or call after Load).
func (s *System) Register(name string, bound, free int, fixed bool,
	fn func(in [][]Value) ([][]Value, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durErr != nil {
		return s.durErr
	}
	err := s.registry.Register(name, plan.BuiltinSig{Bound: bound, Free: free, Fixed: fixed},
		func(_ *vm.Machine, in []term.Tuple) ([]term.Tuple, error) {
			rows := make([][]Value, len(in))
			for i, t := range in {
				rows[i] = []Value(t)
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
	if err != nil {
		return err
	}
	s.compiled = false
	return nil
}

// Load adds Glue/NAIL! source (one or more modules, or a bare script that
// becomes the implicit main module). The source is parsed here, so syntax
// errors surface at once, and the tree is kept for compilation, which is
// deferred to first use. Ground facts for relations the source declares
// edb move into the store now, as one committed statement: each Load
// inserts them exactly once, so a fact retracted later stays retracted
// when the program is recompiled.
func (s *System) Load(src string) (rerr error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	var facts []modsys.Fact
	for _, m := range prog.Modules {
		facts = append(facts, modsys.ExtractEDBFacts(m)...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
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

// guardStorage converts a storage-fault panic escaping a direct EDB
// operation (Assert, Retract, Relation, LoadEDB — paths that touch the
// store without going through the VM) into its typed error. Partial WAL
// deltas from the failed statement are discarded so the durable log still
// ends at the previous statement boundary; any other panic is re-raised.
func (s *System) guardStorage(err *error) {
	r := recover()
	if r == nil {
		return
	}
	perr, ok := r.(error)
	if !ok || (!errors.Is(perr, storage.ErrDiskFault) && !errors.Is(perr, storage.ErrCorrupt)) {
		panic(r)
	}
	if s.recorder != nil {
		s.recorder.Discard()
	}
	if *err == nil {
		*err = perr
	}
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

// ensure links and compiles all loaded sources.
func (s *System) ensure() (rerr error) {
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
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
	s.machine = vm.New(compiler.Program(), s.edb, s.temp, s.registry)
	s.tuneMachine(s.machine, s.cfg.budget)
	s.machine.Out = s.cfg.out
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

// tuneMachine applies the configured execution knobs and the budget b to a
// machine: shared by the live machine (the configured Budget) and every
// snapshot session's private machine (the session's own budget).
func (s *System) tuneMachine(m *vm.Machine, b Budget) {
	m.Materialized = s.cfg.materialized
	m.LoopLimit = defaultLoopLimit
	switch {
	case b.MaxLoopIters > 0:
		m.LoopLimit = b.MaxLoopIters
	case b.MaxLoopIters < 0:
		m.LoopLimit = 0
	}
	switch {
	case b.MaxDepth > 0:
		m.MaxDepth = b.MaxDepth
	case b.MaxDepth < 0:
		m.MaxDepth = 0
	default:
		m.MaxDepth = vm.DefaultMaxDepth
	}
	m.MaxTuples = b.MaxTuples
	m.MaxRelRows = b.MaxRelRows
	// Textual and greedy orderings are ablations: both must execute the
	// compiled op order, so either disables run-time reordering.
	m.StatsOrdering = !s.cfg.greedyOrder && !s.cfg.planOpts.NoReorder
}

// toValue converts a Go value to a term value.
func toValue(v any) (Value, error) {
	switch v := v.(type) {
	case Value:
		return v, nil
	case int:
		return term.NewInt(int64(v)), nil
	case int64:
		return term.NewInt(v), nil
	case float64:
		return term.NewFloat(v), nil
	case string:
		return term.Intern(v), nil
	}
	return Value{}, fmt.Errorf("gluenail: cannot convert %T to a value", v)
}

// convertRow converts row into dst, which has its length.
func convertRow(dst term.Tuple, row []any) error {
	for i, v := range row {
		val, err := toValue(v)
		if err != nil {
			return err
		}
		dst[i] = val
	}
	return nil
}

// scratchKeep caps the input scratch (in values) a System keeps between
// calls; a larger batch's scratch is left to the GC.
const scratchKeep = 1024

// scratchRows converts rows, after lead, into the system's reusable
// scratch: one value slab and one tuple list, valid until releaseScratch.
// Every consumer — Insert, a procedure's input relation — copies what it
// keeps. Called with mu held.
func (s *System) scratchRows(lead []term.Tuple, rows [][]any) ([]term.Tuple, error) {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	vals := slices.Grow(s.rowVals[:0], n)[:n]
	tuples := append(s.rowTuples[:0], lead...)
	s.rowVals = vals
	for _, row := range rows {
		t := term.Tuple(vals[:len(row):len(row)])
		vals = vals[len(row):]
		if err := convertRow(t, row); err != nil {
			s.rowTuples = tuples
			return nil, err
		}
		tuples = append(tuples, t)
	}
	s.rowTuples = tuples
	return tuples, nil
}

// releaseScratch hands the scratch rows' values to the GC once their
// consumer has copied them, dropping a scratch too large to keep.
func (s *System) releaseScratch() {
	if cap(s.rowVals) > scratchKeep || cap(s.rowTuples) > scratchKeep {
		s.rowVals, s.rowTuples = nil, nil
		return
	}
	clear(s.rowVals)
	clear(s.rowTuples)
}

// Assert inserts facts into an EDB relation, creating it on first use. The
// relation name may be a simple name ("edge") or a Value for HiLog set
// relations. If the program is already compiled and declares the relation
// with a different arity, the mismatch is reported instead of silently
// creating a parallel relation.
func (s *System) Assert(relation any, rows ...[]any) (rerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
	name, err := toValue(relation)
	if err != nil {
		return err
	}
	// Check every row up front — a value that does not convert or a
	// declared-arity mismatch rejects the whole batch — counting the rows
	// of each arity.
	counts := make(map[int]int)
	var arities []int
	for _, row := range rows {
		for _, v := range row {
			if _, err := toValue(v); err != nil {
				return err
			}
		}
		if s.lp != nil && name.Kind() == term.Str {
			if sym := s.lp.Resolve("main", name.Str()); sym != nil &&
				sym.Class == modsys.ClassEDB && sym.Arity() != len(row) {
				return fmt.Errorf("gluenail: %s is declared with arity %d, asserted tuple has %d",
					name.Str(), sym.Arity(), len(row))
			}
		}
		if counts[len(row)] == 0 {
			arities = append(arities, len(row))
		}
		counts[len(row)]++
	}
	for _, arity := range arities {
		if err := s.assertGroup(name, arity, counts[arity], rows); err != nil {
			return err
		}
	}
	return s.commit()
}

// assertGroup adds the n rows of one arity. A group large enough for the
// engine's direct bulk path (see ingest) is converted a tuple per row, so
// the heap grows with the batch rather than by one batch-sized slab;
// otherwise each row is converted into one reused scratch tuple and
// inserted, and only the relation's copy allocates.
func (s *System) assertGroup(name term.Value, arity, n int, rows [][]any) error {
	if n >= storage.BulkThreshold {
		if _, ok := s.edb.(storage.BulkLoader); ok {
			batch := make([]term.Tuple, 0, n)
			for _, row := range rows {
				if len(row) != arity {
					continue
				}
				t := make(term.Tuple, arity)
				if err := convertRow(t, row); err != nil {
					return err
				}
				batch = append(batch, t)
			}
			return s.ingest(name, arity, batch)
		}
	}
	rel := s.edb.Ensure(name, arity)
	rel.Grow(n)
	t := slices.Grow(s.rowVals[:0], arity)[:arity]
	s.rowVals = t
	defer s.releaseScratch()
	for _, row := range rows {
		if len(row) != arity {
			continue
		}
		if err := convertRow(t, row); err != nil {
			return err
		}
		rel.Insert(t)
	}
	return nil
}

// ingest adds one relation's batch: through the engine's direct bulk path
// (WAL-bypassing, see bulkLoad) when the batch is large enough, otherwise
// row at a time through the journal.
func (s *System) ingest(name term.Value, arity int, batch []term.Tuple) error {
	if len(batch) >= storage.BulkThreshold {
		if bulk, ok := s.edb.(storage.BulkLoader); ok {
			return s.bulkLoad(bulk, name, arity, batch)
		}
	}
	rel := s.edb.Ensure(name, arity)
	rel.Grow(len(batch))
	for _, t := range batch {
		rel.Insert(t)
	}
	return nil
}

// bulkLoad runs one batch through storage.BulkLoader under the WAL fence:
// pending deltas are committed and the log rotated empty first (replay
// must never re-apply an older tail over a base that already contains the
// batch), the engine ingests the rows directly, and a closing checkpoint
// makes the engine's base — now the batch's only home — durable. A crash
// between the fences reverts to the pre-statement base: the batch's runs
// are swept as orphans on reopen, so recovery still yields a statement-
// boundary prefix. Without a WAL there is nothing to fence.
func (s *System) bulkLoad(bulk storage.BulkLoader, name term.Value, arity int, batch []term.Tuple) error {
	if s.wlog != nil {
		if err := s.commit(); err != nil {
			return err
		}
		if err := s.wlog.Checkpoint(s.edb); err != nil {
			return err
		}
	}
	if _, err := bulk.BulkLoad(name, arity, batch); err != nil {
		return err
	}
	if s.wlog != nil {
		if err := s.wlog.Checkpoint(s.edb); err != nil {
			return err
		}
	}
	return nil
}

// Retract removes facts from an EDB relation.
func (s *System) Retract(relation any, rows ...[]any) (rerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
	name, err := toValue(relation)
	if err != nil {
		return err
	}
	tuples, err := s.scratchRows(nil, rows)
	defer s.releaseScratch()
	if err != nil {
		return err
	}
	for _, t := range tuples {
		if rel, ok := s.edb.Get(name, len(t)); ok {
			rel.Delete(t)
		}
	}
	return s.commit()
}

// Relation returns the current sorted contents of an EDB relation.
func (s *System) Relation(relation any, arity int) (_ [][]Value, rerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return nil, s.durErr
	}
	name, err := toValue(relation)
	if err != nil {
		return nil, err
	}
	rel, ok := s.edb.Get(name, arity)
	if !ok {
		return nil, nil
	}
	return copyRows(storage.Sorted(rel)), nil
}

// copyRows copies tuples into fresh rows cut from one slab, so a caller
// that writes to a returned row cannot reach the relation's storage.
func copyRows(tuples []term.Tuple) [][]Value {
	n := 0
	for _, t := range tuples {
		n += len(t)
	}
	slab := make([]Value, n)
	out := make([][]Value, len(tuples))
	for i, t := range tuples {
		out[i] = slab[:len(t):len(t)]
		copy(out[i], t)
		slab = slab[len(t):]
	}
	return out
}

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
	return s.execute(ctx, &Prepared{sys: s, module: module, goals: goals})
}

// execute resolves a query and runs it on the live machine.
func (s *System) execute(ctx context.Context, p *Prepared) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	return runQuery(ctx, s.machine, s.cfg.budget.Timeout, q)
}

// runQuery executes a compiled query on m — the live machine or a snapshot
// session's — under the wall-clock timeout (0 = none), and shapes its
// answers into a Result: the one tail of every query path.
func runQuery(ctx context.Context, m *vm.Machine, timeout time.Duration, q compiledQuery) (*Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// A snapshot session's machine may predate a recompile; the live
	// machine already runs q's program.
	m.Prog = q.prog
	tuples, err := m.CallProcContext(ctx, q.id, []term.Tuple{{}})
	if err != nil {
		return nil, err
	}
	sortTuples(tuples)
	res := &Result{Vars: q.vars}
	for _, t := range tuples {
		res.Rows = append(res.Rows, []Value(t))
	}
	return res, nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &Prepared{sys: s, module: module, goals: goals}
	if _, err := s.resolve(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Vars returns the query's output variable names in first-occurrence
// order (the columns of every Execute result).
func (p *Prepared) Vars() []string { return p.q.vars }

// Execute runs the prepared query and returns its sorted answers.
func (p *Prepared) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext is Execute under the caller's context; see QueryContext
// for cancellation semantics.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	return p.sys.execute(ctx, p)
}

// resolve returns p's compiled query, compiling the program and the goal
// text as needed: each text is compiled once per compilation of the
// program (cached per module and text), and a handle prepared before a
// recompile re-prepares against the new program. Every query path — ad hoc,
// prepared, EXPLAIN, live or snapshot — resolves here. Called with mu held.
func (s *System) resolve(p *Prepared) (compiledQuery, error) {
	if err := s.ensure(); err != nil {
		return compiledQuery{}, err
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.resolve(&Prepared{sys: s, module: module, goals: goals})
	if err != nil {
		return "", err
	}
	var beforeEDB, beforeScratch storage.Stats
	if analyze {
		s.machine.ResetProfiles()
		beforeEDB, beforeScratch = *s.edb.Stats(), *s.temp.Stats()
		if _, err := runQuery(context.Background(), s.machine, s.cfg.budget.Timeout, q); err != nil {
			return "", err
		}
	}
	text, err := s.renderPhysical(q.id, analyze)
	if err != nil || !analyze {
		return text, err
	}
	return text + s.planCacheTrailer() + s.storageTrailer(beforeEDB, beforeScratch), nil
}

// planCacheTrailer renders the prepared-plan cache counters accumulated
// since the last profile reset — EXPLAIN ANALYZE resets them before its
// run, so the line describes exactly that execution.
func (s *System) planCacheTrailer() string {
	cs := s.machine.PlanCacheStats()
	return fmt.Sprintf("\nplan cache: hits=%d misses=%d invalidations=%d\n",
		cs.Hits, cs.Misses, cs.Invalidations)
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

// ExplainAnalyzeCall invokes an exported procedure like Call, then returns
// its physical plan annotated with the per-operator actual tuple counts
// observed during that invocation.
func (s *System) ExplainAnalyzeCall(module, proc string, in ...[]any) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return "", err
	}
	s.machine.ResetProfiles()
	beforeEDB, beforeScratch := *s.edb.Stats(), *s.temp.Stats()
	if _, err := s.callLocked(context.Background(), module, proc, in...); err != nil {
		return "", err
	}
	sym := s.lp.Resolve(module, proc)
	text, err := s.renderPhysical(sym.Module+"."+proc, true)
	if err != nil {
		return "", err
	}
	return text + s.planCacheTrailer() + s.storageTrailer(beforeEDB, beforeScratch), nil
}

// ExplainProcPhysical renders a compiled procedure's physical plan (and
// those of its transitive callees) with current-statistics estimates.
func (s *System) ExplainProcPhysical(module, proc string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return "", err
	}
	id := module + "." + proc
	if _, ok := s.compiler.Program().Procs[id]; !ok {
		return "", fmt.Errorf("gluenail: no compiled procedure %s", id)
	}
	return s.renderPhysical(id, false)
}

// renderPhysical renders the root procedure followed by every procedure it
// transitively calls, in sorted order.
func (s *System) renderPhysical(rootID string, analyze bool) (string, error) {
	var sb strings.Builder
	ids := append([]string{rootID},
		plan.CalledProcs(s.compiler.Program(), rootID)...)
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte('\n')
		}
		text, err := s.machine.ExplainPhysical(id, analyze)
		if err != nil {
			return "", err
		}
		sb.WriteString(text)
	}
	return sb.String(), nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.callLocked(ctx, module, proc, in...)
}

// callLocked is CallContext with mu already held (shared with
// ExplainAnalyzeCall, which must run the call and render the plan under
// one critical section).
func (s *System) callLocked(ctx context.Context, module, proc string, in ...[]any) ([][]Value, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	sym := s.lp.Resolve(module, proc)
	if sym == nil || sym.Class != modsys.ClassProc {
		return nil, fmt.Errorf("gluenail: no procedure %s.%s", module, proc)
	}
	var lead []term.Tuple
	if sym.Bound == 0 {
		lead = []term.Tuple{{}}
	}
	tuples, err := s.scratchRows(lead, in)
	defer s.releaseScratch()
	if err != nil {
		return nil, err
	}
	if t := s.cfg.budget.Timeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	results, err := s.machine.CallProcContext(ctx, sym.Module+"."+proc, tuples)
	if err != nil {
		return nil, err
	}
	sortTuples(results)
	out := make([][]Value, len(results))
	for i, t := range results {
		out[i] = []Value(t)
	}
	return out, nil
}

// ExplainProc returns a textual rendering of a procedure's compiled plan:
// pipeline segments, break placement, duplicate-elimination and index
// decisions. Generated NAIL! procedures use IDs like "main.tc@bf".
func (s *System) ExplainProc(module, proc string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return "", err
	}
	id := module + "." + proc
	p, ok := s.compiler.Program().Procs[id]
	if !ok {
		return "", fmt.Errorf("gluenail: no compiled procedure %s", id)
	}
	return plan.FormatProc(p), nil
}

// Procs lists the IDs of all compiled procedures, including generated
// NAIL! procedures, in sorted order.
func (s *System) Procs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	var ids []string
	for id := range s.compiler.Program().Procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// SaveEDB writes the EDB to a file (§10: EDB relations persist on disk
// between runs).
func (s *System) SaveEDB(path string) (rerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
	return storage.SaveFile(path, s.edb)
}

// LoadEDB reads an EDB image into the store. On an engine with a direct
// bulk path (storage.BulkLoader — the disk backend), large relations in
// the image bypass the WAL and land straight in runs, fenced by a
// checkpoint on each side (see bulkLoad for the crash-safety argument);
// small relations still insert row at a time through the journal.
func (s *System) LoadEDB(path string) (rerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.guardStorage(&rerr)
	if s.durErr != nil {
		return s.durErr
	}
	_, bulk := s.edb.(storage.BulkLoader)
	if bulk && s.wlog != nil {
		if err := s.commit(); err != nil {
			return err
		}
		if err := s.wlog.Checkpoint(s.edb); err != nil {
			return err
		}
	}
	if err := storage.LoadFile(path, s.edb); err != nil {
		return err
	}
	if err := s.commit(); err != nil {
		return err
	}
	if bulk && s.wlog != nil {
		return s.wlog.Checkpoint(s.edb)
	}
	return nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.machine == nil {
		return PlanCacheStats{}
	}
	return s.machine.PlanCacheStats()
}

// Stats returns a snapshot of the current counters.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{EDB: *s.edb.Stats(), Scratch: *s.temp.Stats()}
	if s.machine != nil {
		st.Exec = s.machine.Stats
	}
	return st
}

// scrubber and degrader are the optional engine faces behind ScrubEDB and
// Degraded; the disk engine implements both.
type scrubber interface {
	Scrub(repair bool) []storage.Finding
}
type degrader interface {
	Degraded() error
}

// ScrubEDB verifies every checksum in a disk-backed EDB's stored runs,
// manifest, and intern file, returning one human-readable line per
// finding (empty means clean). With repair set, auxiliary damage — hash
// sections, bloom filters, footers — is healed by rewriting the run from
// its surviving tuple data, and runs with damaged tuple bytes are
// quarantined (renamed aside and dropped from the relation) rather than
// left to return wrong answers. Requires the disk backend.
func (s *System) ScrubEDB(repair bool) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durErr != nil {
		return nil, s.durErr
	}
	sc, ok := s.edb.(scrubber)
	if !ok {
		return nil, fmt.Errorf("gluenail: ScrubEDB requires the disk backend (WithBackend(\"disk\"))")
	}
	findings := sc.Scrub(repair)
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.String()
	}
	return out, nil
}

// Degraded reports whether the EDB engine has entered read-only degraded
// mode after a disk fault: non-nil is the fault that tripped it (an
// ErrDiskFault). A degraded store keeps serving reads from its durable
// base; writes fail typed until the store is reopened. Always nil for the
// main-memory backend.
func (s *System) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.edb.(degrader); ok {
		return d.Degraded()
	}
	return nil
}

func sortTuples(ts []term.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
