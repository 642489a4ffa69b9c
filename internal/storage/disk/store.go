// Package disk implements the disk-resident storage engine: an
// index-organized store of immutable runs plus a per-relation in-memory
// memtable, registered as backend "disk".
//
// Layout per relation: new rows go to the memtable (a full
// storage.Relation — one open-addressing hash table, MVCC dead
// stamps); when it reaches the flush threshold its live rows are written
// out as a run and the memtable starts fresh. Reads merge runs (flush
// order) with the memtable, which reproduces the main-memory engine's
// insertion-order enumeration exactly. Deleting a run-resident row stamps
// a tombstone (slot -> deleting CSN) instead of rewriting the run, the
// same multi-version visibility rule as the memtable's dead stamps. A
// background compactor merges runs once they pile up.
//
// Durability composes with the existing WAL: every mutation is journaled
// as before, and at checkpoint the WAL calls FlushBase, which makes the
// engine's own base state durable (flush memtables, drop tombstones,
// write the manifest atomically) and then logs an empty snapshot image in
// place of a full one. Recovery loads the manifest first and replays only
// the log tail on top, idempotently.
//
// I/O errors on read paths panic: the Rel read interface has no error
// channel, and the VM's panic containment turns the panic into a typed
// governed error at the statement boundary.
package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

func init() {
	storage.RegisterBackend("disk", func(cfg storage.BackendConfig) (storage.Backend, error) {
		return Open(cfg.Dir, Options{
			Policy:        cfg.Policy,
			CacheBlocks:   cfg.CacheBlocks,
			NoCompress:    cfg.NoCompress,
			FS:            cfg.FS,
			ScrubInterval: cfg.ScrubInterval,
		})
	})
}

// Options tunes a disk store beyond the backend-independent config.
type Options struct {
	// Policy is the adaptive-index policy for memtables and run indexes.
	Policy storage.IndexPolicy
	// FlushRows is the memtable row count that triggers an automatic
	// flush to a run; <= 0 selects the default (32768). A spill store
	// sets it to the scratch budget.
	FlushRows int
	// CacheBlocks caps the shared decoded-block cache; <= 0 selects 512.
	CacheBlocks int
	// CompactAfter is the per-relation run count that wakes the
	// compactor; <= 0 selects 6.
	CompactAfter int
	// Ephemeral marks a scratch store: no manifest or fsync, and Close
	// removes the directory. FlushBase must not be called on it.
	Ephemeral bool
	// NoCompactor disables background compaction (tests, deterministic
	// benchmarks).
	NoCompactor bool
	// NoCompress stores run blocks raw instead of packed (see
	// compress.go). Reads handle both forms regardless, so the setting
	// can change between opens of the same store.
	NoCompress bool
	// NoBloom skips building and consulting per-run bloom filters
	// (benchmark ablation only).
	NoBloom bool
	// Stats, when non-nil, is the shared counter block to account into
	// (a spill store accounts into the executor's scratch stats).
	Stats *storage.Stats
	// FS routes all file I/O; nil selects the real filesystem (fsio.OS).
	// Tests swap in a fault-injecting implementation.
	FS fsio.FS
	// ScrubInterval, when positive, starts a background scrubber that
	// verifies one run's checksums per interval at low priority.
	ScrubInterval time.Duration
}

func (o Options) flushRows() int {
	if o.FlushRows > 0 {
		return o.FlushRows
	}
	return 32768
}

func (o Options) compactAfter() int {
	if o.CompactAfter > 0 {
		return o.CompactAfter
	}
	return 6
}

func (o Options) compress() bool { return !o.NoCompress }

func (o Options) fs() fsio.FS {
	if o.FS != nil {
		return o.FS
	}
	return fsio.OS
}

const (
	manifestName = "MANIFEST.grm"
	// manifestMagic heads the MAN2 format: per relation, its name, arity,
	// distinct digests (so reopen restores planner statistics without
	// decoding any run), and run list. The older MAN1 format, without
	// digests, is refused as corrupt.
	manifestMagic = "GLUENAIL-MAN2\n"
)

// Store is the disk engine. It implements storage.Backend plus the
// composition hooks (storage.BaseFlusher) the WAL checkpoint uses.
type Store struct {
	dir   string
	opts  Options
	fsys  fsio.FS
	stats *storage.Stats
	cache *blockCache

	// degraded holds the first write-path disk fault. Once set the store
	// is read-only: reads keep serving the in-memory state and the last
	// durable manifest, writes fail typed with the stored fault instead
	// of stacking new damage on a failing device. Reopening the store is
	// the only way out — the manifest protocol guarantees the durable
	// state is the previous statement-boundary manifest.
	degraded atomic.Pointer[degradedState]
	// dict is the persistent intern dictionary packed blocks reference;
	// memory-only on ephemeral stores.
	dict *atomDict

	journal   storage.Journal
	commitCSN atomic.Uint64

	// mu guards rels/runSeq/durable/obsolete. The writer is single-
	// threaded per the Rel contract; the lock exists for the background
	// compactor and concurrent snapshot capture. rels keeps creation
	// order, which makes manifests deterministic.
	mu      sync.RWMutex
	rels    storage.Catalog[*Rel]
	runSeq  uint64
	durable map[uint64]bool // run seqs named by the current manifest
	// obsolete holds replaced manifest-listed runs whose files must
	// survive until the next manifest stops naming them (crash recovery
	// reads the old manifest until then). Non-manifest runs are unlinked
	// immediately on replacement instead.
	obsolete []*run
	// graveyard holds runs the compactor replaced whose store reference
	// cannot be released yet: live readers load a relation's run list
	// lock-free, so a reader that picked up the old list may still be
	// probing these files. The release (and with it the file close) is
	// deferred to the next statement boundary — AdvanceCSN or Close —
	// when no live-store reader can be in flight. Snapshots are
	// unaffected: they hold their own retains.
	graveyard []*run

	// compactMu serializes compactor cycles against FlushBase and Close.
	compactMu    sync.Mutex
	compactCh    chan struct{}
	compactStart sync.Once
	stopCh       chan struct{}
	wg           sync.WaitGroup
	closed       atomic.Bool

	// scrubCursor is the run sequence the background scrubber verified
	// last (guarded by mu); it walks the store one run per tick.
	scrubCursor uint64
}

var (
	_ storage.Backend     = (*Store)(nil)
	_ storage.BaseFlusher = (*Store)(nil)
)

type degradedState struct{ err error }

// Degraded returns the disk fault that flipped the store read-only, or
// nil while the store is healthy.
func (s *Store) Degraded() error {
	if d := s.degraded.Load(); d != nil {
		return d.err
	}
	return nil
}

// setDegraded flips the store read-only on its first write-path disk
// fault. Later faults keep the first cause (the one that did the
// damage); corruption and non-I/O errors do not degrade.
func (s *Store) setDegraded(err error) {
	if err == nil || !errors.Is(err, storage.ErrDiskFault) {
		return
	}
	s.degraded.CompareAndSwap(nil, &degradedState{err: err})
}

// failWrite classifies a write-path error: disk faults degrade the
// store; everything passes through for the caller to surface.
func (s *Store) failWrite(err error) error {
	s.setDegraded(err)
	return err
}

// checkWritable panics with the degrading fault if the store is
// read-only. Write entry points call it first, so a degraded store
// rejects mutations without touching the failing device again. The
// panic is typed (errors.Is ErrDiskFault) and converted back into an
// error by the VM's containment or the public API's recover.
func (s *Store) checkWritable() {
	if d := s.degraded.Load(); d != nil {
		panic(d.err)
	}
}

// Open opens (or creates) a disk store rooted at dir. With an empty dir a
// private temp directory is created and treated as ephemeral. Opening
// loads the manifest and every run it names — rebuilding the in-memory
// run indexes and distinct digests — and sweeps orphaned temp and run
// files left by a crash (their contents, if committed, are still in the
// WAL, which replays on top after this returns).
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.fs()
	if dir == "" {
		tmp, err := fsys.MkdirTemp("", "gluenail-disk-")
		if err != nil {
			return nil, storage.IOFault("open", "", err)
		}
		dir = tmp
		opts.Ephemeral = true
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, storage.IOFault("open", dir, err)
	}
	st := &Store{
		dir:     dir,
		opts:    opts,
		fsys:    fsys,
		stats:   opts.Stats,
		cache:   newBlockCache(opts.CacheBlocks),
		durable: make(map[uint64]bool),
		stopCh:  make(chan struct{}),
	}
	if st.stats == nil {
		st.stats = &storage.Stats{}
	}
	st.compactCh = make(chan struct{}, 1)
	// The intern dictionary loads before the manifest: packed blocks in
	// manifest-named runs reference its entries. Ephemeral stores keep it
	// in memory only.
	dictDir := dir
	if opts.Ephemeral {
		dictDir = ""
	}
	dict, err := newAtomDict(fsys, dictDir)
	if err != nil {
		return nil, err
	}
	st.dict = dict
	if err := st.loadManifest(); err != nil {
		_ = dict.close()
		return nil, err
	}
	st.sweepOrphans()
	if opts.ScrubInterval > 0 && !opts.Ephemeral {
		st.startScrubber(opts.ScrubInterval)
	}
	return st, nil
}

// compress reports whether new blocks should try the packed encoding.
func (s *Store) compress() bool { return s.opts.compress() }

// Rel is one disk-resident relation: immutable runs plus a memtable.
type Rel struct {
	st    *Store
	name  term.Value
	arity int

	// mem is the memtable; replaced wholesale on flush (snapshots keep
	// the captured view alive through the GC, as with the main-memory
	// engine's copy-on-write arrays).
	mem *storage.Relation
	// runs is copy-on-write: the writer (and the compactor's install)
	// swaps in a fresh slice; readers and snapshot capture load it
	// atomically.
	runs     atomic.Pointer[[]*run]
	diskLive int // live rows across runs (excludes tombstoned)

	version uint64
	dist    *storage.DistinctTracker

	// relMu serializes structure changes that the background compactor
	// could interleave with: run-list swaps and run tombstones. The
	// writer's per-row paths never contend (the compactor holds it only
	// for a pointer-compare-and-swap install).
	relMu sync.Mutex

	// img is the numbering partial-mask lookups index run-resident rows
	// by: the decoded image of a run list and its index holder (see
	// decodedRuns). Live lookups replace it when the run list moved on;
	// nothing else touches it.
	img atomic.Pointer[decodedRuns]
}

var (
	_ storage.Rel         = (*Rel)(nil)
	_ storage.MemResident = (*Rel)(nil)
	_ storage.Coster      = (*Rel)(nil)
)

// Ensure implements storage.Store.
func (s *Store) Ensure(name term.Value, arity int) storage.Rel {
	return s.ensure(name, arity, true)
}

func (s *Store) ensure(name term.Value, arity int, journal bool) *Rel {
	s.mu.RLock()
	r, ok := s.rels.Get(name, arity)
	s.mu.RUnlock()
	if ok {
		return r
	}
	r = s.newRel(name, arity)
	s.mu.Lock()
	s.rels.Add(name, arity, r)
	s.mu.Unlock()
	if journal && s.journal != nil {
		s.journal.JournalCreate(name, arity)
	}
	return r
}

// newRel returns an empty relation outside the catalog.
func (s *Store) newRel(name term.Value, arity int) *Rel {
	r := &Rel{
		st:    s,
		name:  name,
		arity: arity,
		mem:   storage.NewRelationCSN(name, arity, s.opts.Policy, s.stats, &s.commitCSN),
		dist:  storage.NewDistinctTracker(arity),
	}
	empty := []*run{}
	r.runs.Store(&empty)
	atomic.AddInt64(&s.stats.RelsCreated, 1)
	return r
}

// New implements storage.Scratch: a relation outside the catalog (a spill
// store's frame relation), which spills to runs like any other.
func (s *Store) New(arity int) storage.Rel { return s.newRel(storage.ScratchName, arity) }

// Get implements storage.Store.
func (s *Store) Get(name term.Value, arity int) (storage.Rel, bool) {
	s.mu.RLock()
	r, ok := s.rels.Get(name, arity)
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r, true
}

// Release implements storage.Scratch: the relation's runs are retired,
// their files removed.
func (s *Store) Release(rel storage.Rel) {
	r := rel.(*Rel)
	r.relMu.Lock()
	runs := *r.runs.Load()
	empty := []*run{}
	r.runs.Store(&empty)
	r.diskLive = 0
	r.relMu.Unlock()
	s.retireRuns(runs)
	atomic.AddInt64(&s.stats.RelsDropped, 1)
}

// retireRuns releases ownership of replaced/released runs and removes their
// files unless the durable manifest still needs them. With a background
// compactor running, the final release is deferred to the graveyard (see
// the field comment): a lock-free reader may still hold the replaced run
// list. Without one, every retire is writer-sequenced against all readers
// and the reference can drop immediately.
func (s *Store) retireRuns(runs []*run) {
	if len(runs) == 0 {
		return
	}
	s.mu.Lock()
	for _, rn := range runs {
		if s.durable[rn.seq] {
			s.obsolete = append(s.obsolete, rn)
		} else {
			_ = s.fsys.Remove(rn.path)
		}
		s.cache.dropRun(rn.seq)
		if s.opts.NoCompactor {
			rn.release()
		} else {
			s.graveyard = append(s.graveyard, rn)
		}
	}
	s.mu.Unlock()
}

// drainGraveyard releases deferred run references. Must only be called
// when no live-store reader can be in flight (statement boundaries and
// Close).
func (s *Store) drainGraveyard() {
	s.mu.Lock()
	dead := s.graveyard
	s.graveyard = nil
	s.mu.Unlock()
	for _, rn := range dead {
		rn.release()
	}
}

// Names implements storage.Store.
func (s *Store) Names() []storage.RelName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels.Names()
}

// Stats implements storage.Store.
func (s *Store) Stats() *storage.Stats { return s.stats }

// SetJournal implements storage.Store.
func (s *Store) SetJournal(j storage.Journal) { s.journal = j }

// CommitCSN implements storage.Backend.
func (s *Store) CommitCSN() uint64 { return s.commitCSN.Load() }

// AdvanceCSN implements storage.Backend. Called at statement boundaries,
// which are also the moments no live reader holds a stale run list — so
// compactor-retired runs deferred in the graveyard close here.
func (s *Store) AdvanceCSN() uint64 {
	csn := s.commitCSN.Add(1)
	s.drainGraveyard()
	return csn
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the compactor, closes every run file, and removes the
// directory if the store is ephemeral.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopCh)
	s.wg.Wait()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.drainGraveyard()
	s.mu.Lock()
	rels := s.rels.Rels()
	s.obsolete = nil // released via the graveyard; files kept for the manifest
	s.mu.Unlock()
	for _, r := range rels {
		for _, rn := range *r.runs.Load() {
			rn.release()
		}
	}
	err := s.dict.close()
	if s.opts.Ephemeral {
		if rerr := s.fsys.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// ---- Rel: identity and statistics ----

// Name implements storage.Rel.
func (r *Rel) Name() term.Value { return r.name }

// Arity implements storage.Rel.
func (r *Rel) Arity() int { return r.arity }

// Len implements storage.Rel.
func (r *Rel) Len() int { return r.diskLive + r.mem.Len() }

// MemRows implements storage.MemResident: only the memtable is resident.
func (r *Rel) MemRows() int { return r.mem.Len() }

// Version implements storage.Rel.
func (r *Rel) Version() uint64 { return r.version }

// DistinctEst implements storage.Rel from the relation-wide digest (the
// memtable's own digest covers only resident rows).
func (r *Rel) DistinctEst(col int) int { return r.dist.Estimate(col) }

// CostProfile implements storage.Coster: access costs scale with the
// fraction of rows that live on disk rather than in the memtable.
func (r *Rel) CostProfile() storage.CostProfile { return r.RangeCost(0, r.Len()) }

// RangeCost implements storage.RangeCoster: the fraction is that of slots
// [lo, hi), whose rows below the runs' end live on disk.
func (r *Rel) RangeCost(lo, hi int) storage.CostProfile {
	frac := 0.0
	if hi > lo {
		frac = float64(max(min(hi, r.diskLive)-lo, 0)) / float64(hi-lo)
	}
	return storage.CostProfile{
		Engine: "disk",
		Scan:   1 + 7*frac,
		// Lookup weighs cheaper than before the bloom filters: most
		// membership misses now cost one filter check, no I/O.
		Lookup: 1 + 2*frac,
	}
}

func (r *Rel) fullMask() uint32 { return (uint32(1) << uint(r.arity)) - 1 }

func (r *Rel) deadStamp() uint64 { return r.st.commitCSN.Load() + 1 }

// ---- Rel: mutation ----

// Insert implements storage.Rel: dedup against the runs by cached hash
// (disk touched only on a hash match), then against and into the memtable.
func (r *Rel) Insert(t term.Tuple) bool {
	r.st.checkWritable()
	if r.runsContainIn(*r.runs.Load(), t.Hash(), t) {
		return false
	}
	// From here on t is the memtable's copy: the journal keeps what it is
	// given until commit, and the caller may reuse its tuple.
	t, ok := r.mem.InsertStored(t)
	if !ok {
		return false
	}
	r.dist.Add(t)
	r.version++
	if j := r.st.journal; j != nil {
		j.JournalInsert(r.name, r.arity, t)
	}
	if r.mem.Len() >= r.st.opts.flushRows() {
		if err := r.flush(false); err != nil {
			// A failed flush leaves the rows in the memtable and the
			// store degraded (read-only): the panic is typed and the VM
			// or public API converts it back to an error at the
			// statement boundary instead of poisoning the system.
			panic(r.st.failWrite(err))
		}
	}
	return true
}

// Delete implements storage.Rel. A memtable row is dead-stamped there; a
// run row gets a tombstone at the same CSN semantics.
func (r *Rel) Delete(t term.Tuple) bool {
	r.st.checkWritable()
	if u, ok := r.mem.DeleteStored(t); ok {
		r.dist.Remove(u)
		r.version++
		if j := r.st.journal; j != nil {
			j.JournalDelete(r.name, r.arity, u)
		}
		return true
	}
	// The whole probe-and-stamp runs under relMu: a concurrent compactor
	// install between finding the slot and stamping it would strand the
	// tombstone on a replaced run.
	r.relMu.Lock()
	defer r.relMu.Unlock()
	rn, slot, u := probeRuns(*r.runs.Load(), r.st.cache, r.st.stats, t.Hash(), t, storage.LiveCSN)
	if rn == nil {
		return false
	}
	rn.setTomb(slot, r.deadStamp())
	r.diskLive--
	r.version++
	r.dist.Remove(u)
	atomic.AddInt64(&r.st.stats.Deletes, 1)
	if j := r.st.journal; j != nil {
		j.JournalDelete(r.name, r.arity, u)
	}
	return true
}

// Clear implements storage.Rel.
func (r *Rel) Clear() {
	r.st.checkWritable()
	if r.Len() == 0 {
		return
	}
	r.relMu.Lock()
	runs := *r.runs.Load()
	empty := []*run{}
	r.runs.Store(&empty)
	r.diskLive = 0
	r.relMu.Unlock()
	r.st.retireRuns(runs)
	// Journal-free: the memtable has no journal attached. It never reuses
	// its row chunks (NewRelationCSN), since the store journaled them.
	r.mem.Clear()
	r.dist.Reset()
	r.version++
	if j := r.st.journal; j != nil {
		j.JournalClear(r.name, r.arity)
	}
}

// Grow implements storage.Rel on the memtable, up to the room left before
// its next flush: rows past that land in a fresh memtable.
func (r *Rel) Grow(n int) {
	r.st.checkWritable()
	r.mem.Grow(min(n, r.st.opts.flushRows()-r.mem.Len()))
}

// ModifyByKey implements storage.Rel.
func (r *Rel) ModifyByKey(mask uint32, rows []term.Tuple) {
	for _, row := range rows {
		var victims []term.Tuple
		r.Lookup(mask, row, func(t term.Tuple) bool {
			victims = append(victims, t)
			return true
		})
		for _, v := range victims {
			r.Delete(v)
		}
		r.Insert(row)
	}
}

// flush writes the memtable's live rows out as a new run and starts a
// fresh memtable. Content-preserving: Version is not bumped, and a
// snapshot captured before the flush keeps reading its captured arrays.
// sync makes the run durable before it is visible (checkpoint); auto
// flushes skip it because their rows are still replayable from the WAL.
func (r *Rel) flush(sync bool) error {
	rows := r.mem.All()
	if len(rows) == 0 {
		return nil
	}
	hashes := make([]uint64, len(rows))
	for i, t := range rows {
		hashes[i] = t.Hash()
	}
	seq := r.st.nextRunSeq()
	rn, err := createRun(r.st, seq, r.arity, rows, hashes, sync)
	if err != nil {
		return err
	}
	r.relMu.Lock()
	old := *r.runs.Load()
	nr := make([]*run, len(old)+1)
	copy(nr, old)
	nr[len(old)] = rn
	r.runs.Store(&nr)
	r.diskLive += len(rows)
	nruns := len(nr)
	r.relMu.Unlock()
	r.mem = storage.NewRelationCSN(r.name, r.arity, r.st.opts.Policy, r.st.stats, &r.st.commitCSN)
	atomic.AddInt64(&r.st.stats.RunsFlushed, 1)
	atomic.AddInt64(&r.st.stats.RowsSpilled, int64(len(rows)))
	r.st.maybeCompact(r, nruns)
	return nil
}

func (s *Store) nextRunSeq() uint64 {
	s.mu.Lock()
	s.runSeq++
	seq := s.runSeq
	s.mu.Unlock()
	return seq
}

// ---- Rel: reads ----

// probeRuns is the point probe every full-mask operation shares: it finds
// the copy of t (whole-tuple hash h) visible at snapshot CSN csn among
// runs and returns its run, slot and stored tuple, or a nil run. Per run
// it consults the bloom filter first (a miss skips the run with no I/O at
// all), then probes the run's hash table — loading a reopened run's index
// on first need — comparing one decoded row per visible same-tag slot. At
// most one visible copy exists, so the probe stops at the first. Bloom checks
// are counted locally and published once. I/O and corruption errors panic
// (see the package comment).
func probeRuns(runs []*run, c *blockCache, st *storage.Stats, h uint64, t term.Tuple, csn uint64) (*run, int32, term.Tuple) {
	var checks, skips int64
	defer func() {
		atomic.AddInt64(&st.BloomChecks, checks)
		atomic.AddInt64(&st.BloomSkips, skips)
	}()
	for _, rn := range runs {
		checks++
		if rn.bloom != nil && !rn.bloom.mayContain(h) {
			skips++
			continue
		}
		if err := rn.ensureIndex(st); err != nil {
			panic(err)
		}
		var u term.Tuple
		slot := rn.tab.Find(h, func(slot int32) bool {
			if d := rn.tombAt(slot); d != 0 && d <= csn {
				return false
			}
			var err error
			if u, err = rn.tupleAt(c, st, slot); err != nil {
				panic(err)
			}
			return u.Equal(t)
		})
		if slot >= 0 {
			return rn, slot, u
		}
	}
	return nil, 0, nil
}

// runsContainIn reports whether t is live in an explicit run list — the
// bulk loader passes the runs that predate its batch, skipping the ones
// the batch itself built.
func (r *Rel) runsContainIn(runs []*run, h uint64, t term.Tuple) bool {
	rn, _, _ := probeRuns(runs, r.st.cache, r.st.stats, h, t, storage.LiveCSN)
	return rn != nil
}

// Contains implements storage.Rel.
func (r *Rel) Contains(t term.Tuple) bool {
	return r.mem.Contains(t) || r.runsContainIn(*r.runs.Load(), t.Hash(), t)
}

// Scan implements storage.Rel: runs in flush order, then the memtable —
// global insertion order, matching the main-memory engine.
func (r *Rel) Scan(yield func(term.Tuple) bool) {
	r.scanAt(*r.runs.Load(), r.mem, storage.LiveCSN, r.st.stats, yield)
}

// Lookup implements storage.Rel: run-resident matches first (insertion
// order), then the memtable's.
func (r *Rel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	runs := *r.runs.Load()
	switch {
	case mask == 0:
		r.Scan(yield)
	case mask == r.fullMask():
		// At most one live copy exists across runs + memtable, so result
		// order cannot depend on which is asked first: the memtable (no
		// I/O) is, and a hit there skips the runs.
		found := false
		r.mem.Lookup(mask, key, func(t term.Tuple) bool {
			found = true
			return yield(t)
		})
		if !found {
			r.yieldProbe(runs, storage.LiveCSN, r.st.stats, key, yield)
		}
	case r.lookupRuns(runs, storage.LiveCSN, r.st.stats, mask, key, yield):
		r.mem.Lookup(mask, key, yield)
	}
}

// LookupRange implements storage.Ranger over the slots of scan order:
// the runs' rows as their image numbers them, then the memtable's.
func (r *Rel) LookupRange(lo, hi int, mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	d := 0
	if runs := *r.runs.Load(); len(runs) > 0 {
		im := r.image(runs)
		d = len(im.rows)
		end := min(hi, d)
		if mask != 0 {
			if lo < end && !storage.LookupSlots(im.idx, im, d, lo, end, false, im, storage.LiveCSN, mask, key, r.st.stats, yield) {
				return
			}
		} else {
			atomic.AddInt64(&r.st.stats.RowsScanned, int64(max(end-lo, 0)))
			for i := lo; i < end; i++ {
				if im.Stamp(i) == 0 && !yield(im.rows[i]) {
					return
				}
			}
		}
	}
	if hi > d {
		r.mem.LookupRange(max(lo-d, 0), hi-d, mask, key, yield)
	}
}

// All implements storage.Rel.
func (r *Rel) All() []term.Tuple { return all(r) }

// scanAt is Scan over runs and a memtable view read at csn: the live
// relation's, or a snapshot's.
func (r *Rel) scanAt(runs []*run, mem storage.Rel, csn uint64, stats *storage.Stats, yield func(term.Tuple) bool) {
	for _, rn := range runs {
		atomic.AddInt64(&stats.RowsScanned, int64(rn.nrows))
		more, err := rn.scan(r.st.cache, stats, csn, yield)
		if err != nil {
			panic(err)
		}
		if !more {
			return
		}
	}
	mem.Scan(yield)
}

// yieldProbe is the full-mask run half of a lookup at csn: it yields key's
// visible copy in runs, if there is one.
func (r *Rel) yieldProbe(runs []*run, csn uint64, stats *storage.Stats, key term.Tuple, yield func(term.Tuple) bool) {
	if rn, _, u := probeRuns(runs, r.st.cache, stats, key.Hash(), key, csn); rn != nil {
		atomic.AddInt64(&stats.RowsProbed, 1)
		yield(u)
	}
}

// all collects rel's rows in scan order.
func all(rel storage.Rel) []term.Tuple {
	out := make([]term.Tuple, 0, rel.Len())
	rel.Scan(func(t term.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ---- Rel: partial-mask lookups over runs ----

// decodedRuns numbers the rows of a run list for partial-mask lookups: its
// rows decoded in run/slot order, so slot starts[k]+s is slot s of
// runs[k], plus the index holder of that numbering. A flush only appends a
// run, so the image of the longer list extends the numbering and keeps its
// holder — whose indexes then cover a prefix, as for a captured
// main-memory relation — while compaction, a checkpoint's rewrite or a
// scrub repair replaces runs and starts a new one. An image is immutable:
// a deletion stamps the run's tombstone, which Stamp reads at the reader's
// CSN, and never edits an index.
type decodedRuns struct {
	runs   []*run
	starts []int // len(runs)+1 slot offsets
	rows   []term.Tuple
	idx    *storage.Indexes
}

// Row implements storage.Rows.
func (im *decodedRuns) Row(i int) term.Tuple { return im.rows[i] }

// Stamp implements storage.Stamps from the run tombstones.
func (im *decodedRuns) Stamp(i int) uint64 {
	k := sort.SearchInts(im.starts, i+1) - 1
	return im.runs[k].tombAt(int32(i - im.starts[k]))
}

// shared returns how many leading runs im and runs have in common when one
// list is a prefix of the other, else -1.
func (im *decodedRuns) shared(runs []*run) int {
	k := min(len(im.runs), len(runs))
	for i := range k {
		if im.runs[i] != runs[i] {
			return -1
		}
	}
	return k
}

// image returns the image of the live run list runs: the current one, that
// one extended by the runs flushed since, or a fresh decode.
func (r *Rel) image(runs []*run) *decodedRuns {
	old := r.img.Load()
	k := -1
	if old != nil {
		k = old.shared(runs)
	}
	if k >= 0 && k == len(runs) && k == len(old.runs) {
		return old
	}
	im := &decodedRuns{runs: runs, starts: []int{0}, idx: storage.NewIndexes(r.st.opts.Policy)}
	if k >= 0 && k == len(old.runs) {
		// Full slice expressions: concurrent extenders must never append
		// into one shared backing array.
		im.rows, im.starts, im.idx = old.rows[:len(old.rows):len(old.rows)], old.starts[:k+1:k+1], old.idx
	} else {
		k = 0
	}
	for _, rn := range runs[k:] {
		if _, err := rn.scan(r.st.cache, r.st.stats, 0, func(t term.Tuple) bool {
			im.rows = append(im.rows, t)
			return true
		}); err != nil {
			panic(err)
		}
		im.starts = append(im.starts, len(im.rows))
	}
	r.img.CompareAndSwap(old, im)
	return im
}

// lookupRuns answers a partial-mask lookup over the rows of runs visible
// at csn, in run/slot order, and reports whether yield wants more. The
// live view reads the image of its run list; a snapshot reads the live
// image for the runs it shares with it and scans the rest.
func (r *Rel) lookupRuns(runs []*run, csn uint64, stats *storage.Stats, mask uint32, key term.Tuple, yield func(term.Tuple) bool) bool {
	if len(runs) == 0 {
		return true
	}
	im := r.img.Load()
	if csn == storage.LiveCSN && r.st.opts.Policy != storage.IndexNever {
		im = r.image(runs)
	}
	k := 0
	if im != nil {
		k = max(im.shared(runs), 0)
	}
	if k > 0 && !storage.LookupSlots(im.idx, im, im.starts[k], 0, im.starts[k], true, im, csn, mask, key, stats, yield) {
		return false
	}
	for _, rn := range runs[k:] {
		atomic.AddInt64(&stats.RowsScanned, int64(rn.nrows))
		more, err := rn.scan(r.st.cache, stats, csn, func(t term.Tuple) bool {
			return !t.EqualCols(key, mask) || yield(t)
		})
		if err != nil {
			panic(err)
		}
		if !more {
			return false
		}
	}
	return true
}

// ---- manifest, recovery, checkpoint ----

// FlushBase implements storage.BaseFlusher: called by the WAL at
// checkpoint, at a statement boundary. It flushes every memtable, rewrites
// any run set carrying tombstones (the manifest format has none — at a
// boundary every tombstone is safely droppable, and snapshots pin the old
// runs), writes the manifest atomically, and only then removes files the
// new manifest no longer names.
func (s *Store) FlushBase() error {
	if s.opts.Ephemeral {
		return fmt.Errorf("disk: FlushBase on ephemeral store")
	}
	if err := s.Degraded(); err != nil {
		return err
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.RLock()
	rels := s.rels.Rels()
	s.mu.RUnlock()
	for _, r := range rels {
		if err := r.flush(true); err != nil {
			return s.failWrite(err)
		}
		if err := r.dropTombs(); err != nil {
			return s.failWrite(err)
		}
	}
	return s.persistManifest(rels)
}

// persistManifest makes the current run lists durable: every straggler
// run is fsynced (auto-flushed runs skip the sync because their rows are
// WAL-covered, but a manifest must never name a non-durable file), the
// manifest is written atomically, and files the new manifest no longer
// names are removed. Shared by the checkpoint (FlushBase) and the
// scrubber's heal/quarantine paths, which rewrite run lists between
// checkpoints — safe mid-generation because WAL replay over the new
// manifest is idempotent.
func (s *Store) persistManifest(rels []*Rel) error {
	for _, r := range rels {
		for _, rn := range *r.runs.Load() {
			if rn.synced.Load() {
				continue
			}
			if err := rn.f.Sync(); err != nil {
				return s.failWrite(storage.IOFault("flush", rn.path, err))
			}
			rn.synced.Store(true)
		}
	}
	if err := s.writeManifest(); err != nil {
		return s.failWrite(err)
	}
	// The new manifest is durable: files it no longer names — replaced
	// durable runs and every auto-flushed run now superseded — can go.
	s.mu.Lock()
	obsolete := s.obsolete
	s.obsolete = nil
	durable := make(map[uint64]bool)
	for _, r := range rels {
		for _, rn := range *r.runs.Load() {
			durable[rn.seq] = true
		}
	}
	s.durable = durable
	s.mu.Unlock()
	for _, rn := range obsolete {
		_ = s.fsys.Remove(rn.path)
	}
	return nil
}

// dropTombs rewrites each run that carries tombstones without its
// tombstoned rows, in place in the run list — runs without tombstones
// are untouched, so the size-tiered structure compaction built is
// preserved. Called only at statement boundaries (checkpoint), where
// every tombstone is committed; snapshots captured earlier keep the old
// run objects alive.
func (r *Rel) dropTombs() error {
	runs := *r.runs.Load()
	var nr []*run
	var retired []*run
	for _, rn := range runs {
		if rn.ntombs() == 0 {
			nr = append(nr, rn)
			continue
		}
		rewritten, err := r.mergeRuns([]*run{rn}, ^uint64(0), true)
		if err != nil {
			return err
		}
		if rewritten != nil {
			nr = append(nr, rewritten)
		}
		retired = append(retired, rn)
	}
	if len(retired) == 0 {
		return nil
	}
	if nr == nil {
		nr = []*run{}
	}
	r.relMu.Lock()
	r.runs.Store(&nr)
	r.relMu.Unlock()
	r.st.retireRuns(retired)
	return nil
}

// mergeRuns writes the rows of runs that are live below dropBelow (tomb
// CSN <= dropBelow is dropped; others are carried with their tombstones)
// into one new run, preserving order. Returns nil if no rows survive.
func (r *Rel) mergeRuns(runs []*run, dropBelow uint64, sync bool) (*run, error) {
	var rows []term.Tuple
	var hashes []uint64
	type carried struct {
		slot int32
		csn  uint64
	}
	var carry []carried
	var buf []byte
	for _, rn := range runs {
		if err := rn.ensureIndex(r.st.stats); err != nil {
			return nil, err
		}
		slot := int32(0)
		for bi := range rn.blocks {
			// Streamed past the cache: one pass over a run must not
			// evict the foreground's hot set. buf is reused; decoded
			// rows never alias it.
			var err error
			if buf, err = rn.readFrame(r.st.stats, bi, buf); err != nil {
				return nil, err
			}
			decoded, err := rn.decodeRows(buf, bi)
			if err != nil {
				return nil, err
			}
			for _, t := range decoded {
				d := rn.tombAt(slot)
				if d != 0 && d <= dropBelow {
					slot++
					continue
				}
				if d != 0 {
					carry = append(carry, carried{slot: int32(len(rows)), csn: d})
				}
				rows = append(rows, t)
				hashes = append(hashes, rn.hashes[int(slot)])
				slot++
			}
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	seq := r.st.nextRunSeq()
	merged, err := createRun(r.st, seq, r.arity, rows, hashes, sync)
	if err != nil {
		return nil, err
	}
	for _, c := range carry {
		merged.setTomb(c.slot, c.csn)
	}
	return merged, nil
}

// writeManifest writes the manifest atomically (see writeManifestImage).
// The intern dictionary is synced first — manifest-named packed runs must
// never reference atoms the dictionary could lose.
func (s *Store) writeManifest() error {
	if err := s.dict.sync(); err != nil {
		return err
	}
	s.mu.RLock()
	rels := s.rels.Rels()
	img := &manifestImage{runSeq: s.runSeq, rels: make([]manifestRel, len(rels))}
	for i, r := range rels {
		mr := manifestRel{name: r.name, arity: r.arity, dist: r.dist}
		for _, rn := range *r.runs.Load() {
			mr.runs = append(mr.runs, rn.seq)
		}
		img.rels[i] = mr
	}
	s.mu.RUnlock()
	return writeManifestImage(s.fsys, s.dir, img)
}

// loadManifest restores relations, their distinct digests, and their runs
// from the manifest, if present; reopening decodes no run data at all.
func (s *Store) loadManifest() error {
	path := filepath.Join(s.dir, manifestName)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return storage.IOFault("manifest", path, err)
	}
	img, err := parseManifestImage(path, data)
	if err != nil {
		return err
	}
	for _, mr := range img.rels {
		r := s.ensure(mr.name, mr.arity, false)
		r.dist = mr.dist
		var runs []*run
		live := 0
		for _, seq := range mr.runs {
			rn, err := openRun(s, filepath.Join(s.dir, runName(seq)), seq)
			if err != nil {
				return err
			}
			if rn.arity != mr.arity {
				rn.release()
				return &storage.CorruptError{Artifact: "run-header", Path: rn.path, Run: seq,
					Offset: int64(len(runMagic2)), Detail: fmt.Sprintf("run arity %d, relation arity %d", rn.arity, mr.arity)}
			}
			runs = append(runs, rn)
			live += int(rn.nrows)
			s.durable[seq] = true
		}
		r.runs.Store(&runs)
		r.diskLive = live
	}
	if img.runSeq > s.runSeq {
		s.runSeq = img.runSeq
	}
	return nil
}

// sweepOrphans removes temp files and run files the manifest does not
// name: leftovers of an interrupted flush, compaction, or checkpoint.
// Committed rows among them are still in the WAL, which replays after the
// store opens. The sweep is best-effort: an unremovable orphan (a
// permission oddity, say) costs disk space, not correctness, so failures
// are logged rather than failing the open.
func (s *Store) sweepOrphans() {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gluenail: disk: orphan sweep of %s: %v\n", s.dir, err)
		return
	}
	for _, e := range entries {
		name := e.Name()
		if len(name) > 4 && name[len(name)-4:] == ".tmp" {
			if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "gluenail: disk: removing orphan %s: %v\n", name, err)
			}
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "run-%d.grn", &seq); err == nil && name == runName(seq) {
			if !s.durable[seq] {
				if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
					fmt.Fprintf(os.Stderr, "gluenail: disk: removing orphan %s: %v\n", name, err)
				}
			}
			if seq > s.runSeq {
				s.runSeq = seq // never reuse a swept sequence number
			}
		}
	}
}
