package gluenail

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/vm"
	"gluenail/internal/wal"
)

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
// snapshots, disk-engine runs, manifest, intern file, spill runs, EDB
// images) is written through; see the storage/fsio package. The default
// is the real filesystem; fault-injection tests swap in a scripted
// implementation.
type FS = fsio.FS

// WithFS routes all of the system's file I/O through fs (nil keeps the
// real filesystem). The seam covers the write-ahead log, checkpoints, the
// disk engine's runs and manifest, spill scratch stores, and the images
// SaveEDB and LoadEDB write and read — so a single injected fault surface
// exercises every persistence path.
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
