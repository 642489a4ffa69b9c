// Multi-version snapshot reads: SnapStore/SnapRel give a concurrent read
// session an immutable, statement-boundary view of a MemStore while the
// (single) writer keeps committing.
//
// The mechanism is copy-on-write through the garbage collector rather than
// copy-on-read: capturing a snapshot copies only slice headers (tuples,
// cached hashes, dead stamps) under the writer's statement-boundary lock.
// Appends by the writer land beyond the captured length; structural
// rewrites (compact, Clear) swap in fresh backing arrays; and deletions
// stamp the shared dead slice with the deleting statement's CSN, which
// snapshot readers load atomically and compare against their snapshot CSN.
// A slot is visible at snapshot CSN S iff its dead stamp is 0 or > S. The
// writer never blocks on readers, readers never block the writer, and a
// snapshot's memory is reclaimed by the GC once the last reader drops it.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gluenail/internal/term"
)

// Snapshot captures an immutable view of every relation in the store at
// the current committed CSN. It must be called at a statement boundary —
// while no writer is mutating the store — which the public API guarantees
// by holding the system's writer lock; the returned view may then be read
// concurrently with later writers.
func (s *MemStore) Snapshot() *SnapStore {
	ss := &SnapStore{
		csn:  s.commitCSN.Load(),
		rels: make(map[string]*SnapRel, len(s.rels)),
	}
	for k, r := range s.rels {
		ss.rels[k] = newSnapRel(r, ss.csn, &ss.stats)
	}
	return ss
}

// SnapStore is the Store view a snapshot session reads: every relation is
// a SnapRel frozen at the capture CSN, relations created later do not
// exist, and mutation through it is a programming error (it panics).
type SnapStore struct {
	csn   uint64
	stats Stats
	// mu guards rels: reads come from resolve paths, and Ensure may
	// install an empty placeholder.
	mu   sync.RWMutex
	rels map[string]*SnapRel
}

var _ Store = (*SnapStore)(nil)

// CSN returns the commit sequence number the snapshot was captured at.
func (s *SnapStore) CSN() uint64 { return s.csn }

// Ensure implements Store. A missing relation yields an empty read-only
// placeholder (writes to it panic, as on every snapshot relation).
func (s *SnapStore) Ensure(name term.Value, arity int) Rel {
	k := relKey(name, arity)
	s.mu.RLock()
	r, ok := s.rels[k]
	s.mu.RUnlock()
	if ok {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.rels[k]; ok {
		return r
	}
	r = &SnapRel{name: name, arity: arity, csn: s.csn, stats: &s.stats}
	s.rels[k] = r
	return r
}

// Get implements Store.
func (s *SnapStore) Get(name term.Value, arity int) (Rel, bool) {
	s.mu.RLock()
	r, ok := s.rels[relKey(name, arity)]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r, true
}

// Drop implements Store as a no-op: the snapshot is immutable.
func (s *SnapStore) Drop(name term.Value, arity int) {}

// Names implements Store.
func (s *SnapStore) Names() []RelName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RelName, 0, len(s.rels))
	for _, r := range s.rels {
		out = append(out, RelName{Name: r.name, Arity: r.arity})
	}
	return out
}

// Stats implements Store; a snapshot session accounts its reads here, not
// against the live store.
func (s *SnapStore) Stats() *Stats { return &s.stats }

// SetJournal implements Store as a no-op: snapshots never mutate, so there
// is nothing to journal.
func (s *SnapStore) SetJournal(j Journal) {}

// SnapRel is one relation frozen at a snapshot CSN: the captured slice
// headers plus the visibility rule. Read methods filter by the shared
// dead stamps; write methods panic — the executor only routes reads at a
// snapshot (queries cannot contain EDB updates), so a write reaching here
// is a bug worth failing loudly on, and the VM's panic containment turns
// it into a typed error on the session's private machine.
type SnapRel struct {
	name  term.Value
	arity int
	csn   uint64
	// Captured headers; the writer appends past len and rewrites via
	// fresh arrays, so everything below len is frozen except the dead
	// stamps, which are loaded atomically.
	tuples []term.Tuple
	hashes []uint64
	dead   []uint64
	// src is the live relation, consulted only for planner statistics
	// (DistinctEst/StatsEpoch, both safe against the writer); nil for
	// empty placeholders.
	src     *Relation
	version uint64
	stats   *Stats

	// lenOnce lazily counts visible tuples: the planner asks Len, most
	// relations in a snapshot are never read, and the count is O(slots).
	lenOnce sync.Once
	n       int

	// Snapshot-local adaptive indexes: the live relation's indexes are
	// writer-maintained and unversioned, so a snapshot builds its own on
	// the same scan-credit policy. mu guards the maps; builds serialize
	// per mask through onces; credit accrues atomically so concurrent
	// readers never lose updates.
	mu      sync.RWMutex
	indexes map[uint32]*hashIndex
	onces   map[uint32]*sync.Once
	credit  map[uint32]*atomic.Int64
}

var _ Rel = (*SnapRel)(nil)

func newSnapRel(r *Relation, csn uint64, stats *Stats) *SnapRel {
	return &SnapRel{
		name:    r.name,
		arity:   r.arity,
		csn:     csn,
		tuples:  r.tuples,
		hashes:  r.hashes,
		dead:    r.dead,
		src:     r,
		version: r.version,
		stats:   stats,
	}
}

// visible reports whether slot i exists at the snapshot CSN: live (stamp
// 0) or deleted by a statement that committed after the capture.
func (r *SnapRel) visible(i int) bool {
	d := atomic.LoadUint64(&r.dead[i])
	return d == 0 || d > r.csn
}

// Name implements Rel.
func (r *SnapRel) Name() term.Value { return r.name }

// Arity implements Rel.
func (r *SnapRel) Arity() int { return r.arity }

// Len implements Rel; the visible-tuple count is computed on first use.
func (r *SnapRel) Len() int {
	r.lenOnce.Do(func() {
		for i := range r.tuples {
			if r.visible(i) {
				r.n++
			}
		}
	})
	return r.n
}

// Version implements Rel with the version captured at the snapshot: the
// view never changes, so neither does its version.
func (r *SnapRel) Version() uint64 { return r.version }

// StatsEpoch implements Rel, delegating to the live relation: planner
// statistics describe the present, and any plan is correct against the
// snapshot — only its cost model benefits from freshness.
func (r *SnapRel) StatsEpoch() uint64 {
	if r.src == nil {
		return 0
	}
	return r.src.StatsEpoch()
}

// DistinctEst implements Rel, delegating to the live relation (guarded
// against the writer by its stats mutex).
func (r *SnapRel) DistinctEst(col int) int {
	if r.src == nil {
		return 0
	}
	return r.src.DistinctEst(col)
}

func (r *SnapRel) readOnly(op string) string {
	return fmt.Sprintf("storage: %s on relation %v/%d of a read-only snapshot (CSN %d)",
		op, r.name, r.arity, r.csn)
}

// Insert implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Insert(t term.Tuple) bool { panic(r.readOnly("Insert")) }

// Delete implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Delete(t term.Tuple) bool { panic(r.readOnly("Delete")) }

// Clear implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Clear() { panic(r.readOnly("Clear")) }

// UnionDiff implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) UnionDiff(batch []term.Tuple) []term.Tuple {
	panic(r.readOnly("UnionDiff"))
}

// ModifyByKey implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) ModifyByKey(mask uint32, rows []term.Tuple) {
	panic(r.readOnly("ModifyByKey"))
}

// Contains implements Rel: a hash-assisted scan over the captured slots
// (the live hash chains are writer-owned and unversioned), with scan
// credit accruing toward a snapshot-local whole-tuple index.
func (r *SnapRel) Contains(t term.Tuple) bool {
	full := fullColsMask(r.arity)
	if ix := r.index(full); ix != nil {
		found := false
		r.probe(ix, full, t, func(term.Tuple) bool { found = true; return false })
		return found
	}
	r.creditAndMaybeBuild(full)
	h := t.Hash()
	for i := range r.tuples {
		if r.hashes[i] == h && r.visible(i) && r.tuples[i].Equal(t) {
			return true
		}
	}
	return false
}

// Scan implements Rel; visible tuples are visited in insertion order.
func (r *SnapRel) Scan(yield func(term.Tuple) bool) {
	atomic.AddInt64(&r.stats.RowsScanned, int64(len(r.tuples)))
	for i, t := range r.tuples {
		if !r.visible(i) {
			continue
		}
		if !yield(t) {
			return
		}
	}
}

// Lookup implements Rel: through a snapshot-local index when one has been
// built (probes enumerate insertion order, like the live relation's), a
// filtered scan otherwise, accruing credit toward building one.
func (r *SnapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	if mask == 0 || len(r.tuples) == 0 {
		r.Scan(yield)
		return
	}
	if ix := r.index(mask); ix != nil {
		r.probe(ix, mask, key, yield)
		return
	}
	if once := r.creditAndMaybeBuild(mask); once != nil {
		if ix := r.index(mask); ix != nil {
			r.probe(ix, mask, key, yield)
			return
		}
	}
	atomic.AddInt64(&r.stats.RowsScanned, int64(len(r.tuples)))
	for i, t := range r.tuples {
		if r.visible(i) && t.EqualCols(key, mask) {
			if !yield(t) {
				return
			}
		}
	}
}

// All implements Rel; the visible tuples in insertion order.
func (r *SnapRel) All() []term.Tuple {
	out := make([]term.Tuple, 0, len(r.tuples))
	for i, t := range r.tuples {
		if r.visible(i) {
			out = append(out, t)
		}
	}
	return out
}

// index returns the published snapshot-local index for mask, if any.
func (r *SnapRel) index(mask uint32) *hashIndex {
	r.mu.RLock()
	ix := r.indexes[mask]
	r.mu.RUnlock()
	return ix
}

// creditAndMaybeBuild charges one full scan toward building a
// snapshot-local index on mask and builds it (exactly once, possibly
// racing other readers onto the same sync.Once) when the accumulated
// credit crosses the adaptive threshold — the same policy the live
// relation applies, minus the per-store knob: a snapshot always indexes
// adaptively, since it cannot fall back on the writer's indexes.
func (r *SnapRel) creditAndMaybeBuild(mask uint32) *sync.Once {
	rows := int64(len(r.tuples))
	if rows == 0 {
		return nil
	}
	r.mu.RLock()
	c := r.credit[mask]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.credit[mask]; c == nil {
			if r.credit == nil {
				r.credit = make(map[uint32]*atomic.Int64)
			}
			c = new(atomic.Int64)
			r.credit[mask] = c
		}
		r.mu.Unlock()
	}
	if c.Add(rows) < adaptiveFactor*rows {
		return nil
	}
	once := r.buildGuard(mask)
	once.Do(func() { r.publishIndex(mask) })
	return once
}

// buildGuard returns the per-mask sync.Once serializing snapshot-local
// index builds.
func (r *SnapRel) buildGuard(mask uint32) *sync.Once {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.onces == nil {
		r.onces = make(map[uint32]*sync.Once)
	}
	once := r.onces[mask]
	if once == nil {
		once = new(sync.Once)
		r.onces[mask] = once
	}
	return once
}

// publishIndex builds the snapshot-local index over the visible tuples in
// insertion order and publishes it.
func (r *SnapRel) publishIndex(mask uint32) {
	ix := &hashIndex{mask: mask, buckets: make(map[uint64][]term.Tuple)}
	for i, t := range r.tuples {
		if r.visible(i) {
			ix.add(t)
		}
	}
	atomic.AddInt64(&r.stats.IndexBuilds, 1)
	r.mu.Lock()
	if r.indexes == nil {
		r.indexes = make(map[uint32]*hashIndex)
	}
	r.indexes[mask] = ix
	delete(r.credit, mask)
	r.mu.Unlock()
}

// probe answers a lookup from a snapshot-local index.
func (r *SnapRel) probe(ix *hashIndex, mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	for _, t := range ix.buckets[key.HashCols(mask)] {
		if t.EqualCols(key, mask) {
			atomic.AddInt64(&r.stats.RowsProbed, 1)
			if !yield(t) {
				return
			}
		}
	}
}

// fullColsMask returns the bitmask selecting every column of an
// arity-column relation.
func fullColsMask(arity int) uint32 { return (uint32(1) << uint(arity)) - 1 }
