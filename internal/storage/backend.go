// Backend seam: the contract a storage engine implements to sit under the
// executor, and the registry the public API resolves engine names through.
//
// A Backend is a Store (relation lifecycle, journal hooks) plus the
// multi-version machinery the server surface depends on: a commit sequence
// number advanced at statement boundaries and statement-boundary snapshot
// capture. The tailored main-memory MemStore is the default engine; the
// disk-resident engine lives in the storage/disk subpackage and registers
// itself under "disk". Engines register from init functions so importing a
// backend package is all it takes to make it selectable by name.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// SnapshotStore is the read-only view a snapshot session executes against:
// a Store frozen at a statement boundary, identified by the CSN it was
// captured at. Implementations that hold resources beyond memory (open run
// files, pinned manifests) additionally implement io.Closer; sessions close
// their view when they end.
type SnapshotStore interface {
	Store
	// CSN returns the commit sequence number the view was captured at.
	CSN() uint64
}

// Backend is a full storage engine: a Store that also owns the commit
// sequence number versioning its relations and can capture consistent
// snapshot views. All CSN and snapshot methods must be called at statement
// boundaries (no writer in flight), which the public API guarantees by
// holding the system writer lock.
type Backend interface {
	Store
	// CommitCSN returns the last committed statement's sequence number.
	CommitCSN() uint64
	// AdvanceCSN publishes a statement boundary and returns the new CSN.
	AdvanceCSN() uint64
	// SnapshotView captures an immutable view of every relation at the
	// current committed CSN for a concurrent read session.
	SnapshotView() (SnapshotStore, error)
	// Close releases engine resources (file handles, background workers).
	// The store must not be used afterwards.
	Close() error
}

// BaseFlusher is implemented by engines that keep their base state outside
// the WAL snapshot image (the disk engine's runs + manifest). At checkpoint
// the WAL calls FlushBase to make the engine's own base state durable and
// then writes an empty snapshot image in its place: recovery reloads the
// base from the engine and replays only the log tail on top (storage.Load
// is additive, so the empty image is a no-op).
type BaseFlusher interface {
	// FlushBase makes all committed state durable in the engine's own
	// on-disk format. Called at a statement boundary.
	FlushBase() error
}

// MemResident is implemented by relations whose rows are not all held in
// memory (a spill-backed scratch table). The execution governor charges
// such relations their resident rows — not their total cardinality —
// against the MaxRelRows budget: rows beyond the memory budget have been
// spilled to disk, which is exactly what the budget is for.
type MemResident interface {
	// MemRows returns the number of rows currently held in memory.
	MemRows() int
}

// CostProfile describes a relation's access costs to the physical planner,
// relative to the tailored main-memory engine (1.0 = one in-memory row
// visit). The planner multiplies estimated cardinalities by these factors
// when ordering joins, so a disk-resident relation is scanned later (or
// probed instead of scanned) where an in-memory one would not care.
type CostProfile struct {
	// Engine names the backing engine ("disk"); empty means the default
	// main-memory engine and is omitted from EXPLAIN output.
	Engine string
	// Scan is the per-row cost factor of a full enumeration.
	Scan float64
	// Lookup is the per-row cost factor of an indexed probe.
	Lookup float64
}

// Coster is implemented by relations with non-default access costs. The
// main-memory Relation deliberately does not implement it: its factors are
// the 1.0 baseline, and skipping the interface keeps the planner's hot
// path free of assertions on the common engine.
type Coster interface {
	CostProfile() CostProfile
}

// RangeCoster gives a slot range's factors (Ranger): the disk engine's
// older slots are on disk and its newer ones in its memtable.
type RangeCoster interface{ RangeCost(lo, hi int) CostProfile }

// BulkLoader is implemented by engines that can ingest a large batch of
// rows directly into their base storage, bypassing the per-row journal.
// The batch's durability point is the engine's own base commit (the disk
// engine's manifest), not the WAL — so callers must fence the call: rotate
// the journal to an empty tail first (the log must never replay over a
// base that already contains the batch), call BulkLoad, then flush the
// base (storage.BaseFlusher). A crash before the base flush loses exactly
// the whole batch (the statement), never a suffix of earlier statements.
type BulkLoader interface {
	// BulkLoad deduplicates rows against the relation and within the
	// batch, appends the survivors in order, and returns how many were
	// added. Must be called at a statement boundary.
	BulkLoad(name term.Value, arity int, rows []term.Tuple) (added int, err error)
}

// BulkThreshold is the batch size at which loaders prefer BulkLoad over
// row-at-a-time inserts: below it the fence (a checkpoint plus a base
// flush) costs more than the journal writes it saves.
const BulkThreshold = 4096

// BackendConfig carries the engine-independent open parameters.
type BackendConfig struct {
	// Dir is the directory a disk-resident engine keeps its state in.
	// Empty selects an ephemeral store (a private temp directory, removed
	// on Close) for engines that need a directory at all.
	Dir string
	// Policy is the adaptive-index policy relations follow.
	Policy IndexPolicy
	// CacheBlocks caps a disk-resident engine's decoded-block cache
	// (entries, not bytes); <= 0 selects the engine default.
	CacheBlocks int
	// NoCompress disables a disk-resident engine's block compression
	// (blocks are stored raw). Reads handle both forms regardless.
	NoCompress bool
	// FS routes the engine's file I/O; nil selects the real filesystem
	// (fsio.OS). Tests swap in a fault-injecting implementation.
	FS fsio.FS
	// ScrubInterval, when positive, asks a disk-resident engine to run a
	// background scrubber verifying one stored run's checksums per
	// interval. Engines without persistent runs ignore it.
	ScrubInterval time.Duration
}

var (
	backendMu sync.RWMutex
	backends  = map[string]func(BackendConfig) (Backend, error){}
)

// RegisterBackend makes a storage engine selectable by name through
// OpenBackend. Engines call it from init; registering a duplicate name
// panics (it is a programming error, not a runtime condition).
func RegisterBackend(name string, open func(BackendConfig) (Backend, error)) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic("storage: duplicate backend registration: " + name)
	}
	backends[name] = open
}

// OpenBackend opens the named engine. Unknown names list the registered
// engines in the error, so a typo on a -store flag is self-explaining.
func OpenBackend(name string, cfg BackendConfig) (Backend, error) {
	backendMu.RLock()
	open, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown backend %q (registered: %v)", name, BackendNames())
	}
	return open(cfg)
}

// BackendNames returns the registered engine names, sorted.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SnapshotView implements Backend for the main-memory engine.
func (s *MemStore) SnapshotView() (SnapshotStore, error) {
	return s.Snapshot(), nil
}

// Close implements Backend. The main-memory engine holds no resources
// beyond garbage-collected memory.
func (s *MemStore) Close() error { return nil }

var _ Backend = (*MemStore)(nil)

// NewRelationCSN creates an empty relation whose deletions are stamped from
// the shared commit sequence number csn — the constructor a composing
// engine (the disk engine's memtables) uses so its in-memory rows carry the
// same multi-version visibility semantics as the main-memory store's.
// stats and csn may be nil. The composing engine journals the relation's
// stored tuples itself, so Clear never rewrites the relation's row storage.
func NewRelationCSN(name term.Value, arity int, policy IndexPolicy, stats *Stats, csn *atomic.Uint64) *Relation {
	r := NewRelation(name, arity, policy, stats)
	r.csn = csn
	r.keepRows = true
	return r
}

// DistinctTracker maintains per-column distinct-value estimates for an
// engine that stores rows outside a Relation (the disk engine's runs). It
// is the same digest the main-memory engine uses — exact while small, a
// linear-counting sketch beyond — folded as rows arrive (the engine
// persists it, so it must be current at every flush) and behind a mutex
// so a snapshot session's planner can estimate while the writer feeds it.
type DistinctTracker struct {
	mu   sync.Mutex
	cols []colStats
}

// NewDistinctTracker returns a tracker for arity columns.
func NewDistinctTracker(arity int) *DistinctTracker {
	return &DistinctTracker{cols: make([]colStats, arity)}
}

// Add folds a tuple's column values into the digest.
func (d *DistinctTracker) Add(t term.Tuple) {
	d.mu.Lock()
	for i := range t {
		if i < len(d.cols) {
			d.cols[i].fold(t[i].Hash())
		}
	}
	d.mu.Unlock()
}

// AddBatch folds a batch of tuples under one lock acquisition — the bulk
// loader's per-row Add calls were a measurable share of its profile.
func (d *DistinctTracker) AddBatch(rows []term.Tuple) {
	d.mu.Lock()
	for _, t := range rows {
		for i := range t {
			if i < len(d.cols) {
				d.cols[i].fold(t[i].Hash())
			}
		}
	}
	d.mu.Unlock()
}

// Remove withdraws a tuple's column values (exact while small; the sketch
// ignores removals, like the main-memory digest).
func (d *DistinctTracker) Remove(t term.Tuple) {
	d.mu.Lock()
	for i := range t {
		if i < len(d.cols) {
			d.cols[i].remove(t[i].Hash())
		}
	}
	d.mu.Unlock()
}

// Estimate returns the distinct-value estimate for column col.
func (d *DistinctTracker) Estimate(col int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if col < 0 || col >= len(d.cols) {
		return 0
	}
	return d.cols[col].estimate()
}

// Reset clears the digest (relation Clear).
func (d *DistinctTracker) Reset() {
	d.mu.Lock()
	for i := range d.cols {
		d.cols[i] = colStats{}
	}
	d.mu.Unlock()
}

// AppendDigest serializes the tracker's per-column digests so an engine
// can persist them (the disk engine's manifest) and restore planner
// statistics on reopen without re-reading every stored row. The encoding
// is deterministic for identical contents.
func (d *DistinctTracker) AppendDigest(dst []byte) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(len(d.cols)))
	for i := range d.cols {
		dst = d.cols[i].appendDigest(dst)
	}
	return dst
}

// ReadDigest restores digests serialized by AppendDigest, replacing the
// tracker's current state. The serialized arity must match.
func (d *DistinctTracker) ReadDigest(r *bufio.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if int(n) != len(d.cols) {
		return fmt.Errorf("storage: digest arity %d does not match tracker arity %d", n, len(d.cols))
	}
	for i := range d.cols {
		if err := d.cols[i].readDigest(r); err != nil {
			return err
		}
	}
	return nil
}
