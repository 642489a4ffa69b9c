// Multi-version snapshot reads: SnapStore/SnapRel give a concurrent read
// session an immutable, statement-boundary view of a MemStore while the
// (single) writer keeps committing.
//
// The mechanism is copy-on-write through the garbage collector rather than
// copy-on-read: capturing a snapshot copies only slice headers (the chunk
// directory, dead stamps), the chunk schedule and the slot count under the
// writer's statement-boundary lock.
// Appends by the writer land beyond the captured slots; structural
// rewrites (compact, Clear) of a captured slot numbering swap in fresh
// backing arrays; and deletions stamp the shared dead slice with the
// deleting statement's CSN, which snapshot readers load atomically and
// compare against their snapshot CSN.
// A slot is visible at snapshot CSN S iff its dead stamp is 0 or > S; a
// capture with no stamp array (nothing was deleted yet) sees every slot,
// since any later deletion is stamped above S. The
// writer never blocks on readers, readers never block the writer, and a
// snapshot's memory is reclaimed by the GC once the last reader drops it.
//
// Adaptive indexes (§10) belong to the slot numbering, not to a snapshot
// (index.go): a snapshot is the view of slots [0, n) at its CSN, and it
// reads through the same functions and the same index holder as the live
// relation. Capturing marks the numbering captured, which freezes the
// holder: from then on no writer edits it.
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
	ss := NewSnapStore(s.commitCSN.Load())
	ss.rels = mapCatalog(&s.rels, func(r *Relation) Rel {
		return CaptureRel(r, ss.csn, &ss.stats)
	})
	return ss
}

// SnapStore is the Store view a snapshot session reads, on every engine:
// each relation is frozen at the capture CSN, relations created later do
// not exist, and mutation through it is a programming error (it panics).
// The main-memory engine's relations are SnapRels; an engine with its own
// frozen relation type adds them with Capture.
type SnapStore struct {
	csn   uint64
	stats Stats
	// mu guards rels: reads come from resolve paths, and Ensure may
	// install an empty placeholder.
	mu   sync.RWMutex
	rels Catalog[Rel]
}

// NewSnapStore returns an empty snapshot store at csn.
func NewSnapStore(csn uint64) *SnapStore { return &SnapStore{csn: csn} }

// Capture adds r, a relation frozen at the store's CSN that accounts its
// reads to the store's Stats. Engines call it while building the view,
// before sharing it.
func (s *SnapStore) Capture(r Rel) {
	s.mu.Lock()
	s.rels.Add(r.Name(), r.Arity(), r)
	s.mu.Unlock()
}

var _ Store = (*SnapStore)(nil)

// CSN returns the commit sequence number the snapshot was captured at.
func (s *SnapStore) CSN() uint64 { return s.csn }

// Ensure implements Store. A missing relation yields an empty read-only
// placeholder (writes to it panic, as on every snapshot relation).
func (s *SnapStore) Ensure(name term.Value, arity int) Rel {
	s.mu.RLock()
	r, ok := s.rels.Get(name, arity)
	s.mu.RUnlock()
	if ok {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.rels.Get(name, arity); ok {
		return r
	}
	r = &SnapRel{Frozen: NewFrozen(name, arity, s.csn), stats: &s.stats}
	s.rels.Add(name, arity, r)
	return r
}

// Get implements Store.
func (s *SnapStore) Get(name term.Value, arity int) (Rel, bool) {
	s.mu.RLock()
	r, ok := s.rels.Get(name, arity)
	s.mu.RUnlock()
	return r, ok
}

// New implements Scratch with a private relation, outside the snapshot.
func (s *SnapStore) New(arity int) Rel {
	atomic.AddInt64(&s.stats.RelsCreated, 1)
	return NewRelation(ScratchName, arity, IndexAdaptive, &s.stats)
}

// Release implements Scratch.
func (s *SnapStore) Release(Rel) { atomic.AddInt64(&s.stats.RelsDropped, 1) }

// Names implements Store.
func (s *SnapStore) Names() []RelName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels.Names()
}

// Stats implements Store; a snapshot session accounts its reads here, not
// against the live store.
func (s *SnapStore) Stats() *Stats { return &s.stats }

// SetJournal implements Store as a no-op: snapshots never mutate, so there
// is nothing to journal.
func (s *SnapStore) SetJournal(j Journal) {}

// SnapRel is one relation frozen at a snapshot CSN: a view of the captured
// slot numbering — its rows and dead stamps, the CSN they are read at, and
// the numbering's index holder — over the functions the live relation
// reads with. Its name, arity, CSN and writes are Frozen's.
type SnapRel struct {
	Frozen
	// Captured storage and stamps; the writer appends past rows.slots and
	// rewrites via fresh arrays, so every captured slot is frozen except
	// its dead stamp, which is loaded atomically. Nil stamps: no slot is
	// dead at csn.
	rows rowChunks
	dead []uint64
	// n is the visible-tuple count, fixed at capture. anyDead records
	// that a slot was stamped dead at capture; without one, every slot is
	// visible at csn (later stamps are above it).
	n       int
	anyDead bool
	// idx is the captured numbering's index holder, shared with the live
	// relation and every other snapshot of it; nil for placeholders.
	idx *Indexes
	// src is the live relation, consulted only for planner statistics
	// (DistinctEst, safe against the writer); nil for placeholders.
	// foldGen is its fold generation at capture.
	src     *Relation
	foldGen uint64
	version uint64
	stats   *Stats
}

var _ Rel = (*SnapRel)(nil)

// CaptureRel freezes a relation at snapshot CSN csn: the returned view
// reads the captured storage with the standard visibility rule (dead
// stamp 0 or > csn, no stamps at all: every slot) and shares the
// relation's index holder.
// Must be called at a statement boundary, like MemStore.Snapshot; stats
// receives the view's read accounting. r must have a CSN source (a store's
// relation): a standalone relation stamps its deletions deadForever, which
// the view would read as live.
func CaptureRel(r *Relation, csn uint64, stats *Stats) *SnapRel {
	n := r.n
	if r.lastStamp > csn {
		n += r.stamped
	}
	r.captured.Store(true)
	return &SnapRel{
		Frozen:  NewFrozen(r.name, r.rows.arity, csn),
		rows:    r.rows,
		dead:    r.dead,
		n:       n,
		anyDead: r.tombs > 0,
		idx:     r.indexes(),
		src:     r,
		foldGen: r.foldGen,
		version: r.version,
		stats:   stats,
	}
}

// Len implements Rel with the visible-tuple count captured at the snapshot.
func (r *SnapRel) Len() int { return r.n }

// Version implements Rel with the version captured at the snapshot: the
// view never changes, so neither does its version.
func (r *SnapRel) Version() uint64 { return r.version }

// DistinctEst implements Rel from the live relation's digest. Slots it has
// not folded yet are folded from the captured arrays, never the writer's
// live headers, while the capture's fold generation is current.
func (r *SnapRel) DistinctEst(col int) int {
	if r.src == nil {
		return 0
	}
	return r.src.distinctEst(col, r.foldGen, &r.rows, r.dead)
}

// Frozen is what the snapshot relations of every engine share: the
// relation's name and arity, the CSN it is frozen at, and write methods
// that panic. The executor only routes reads at a snapshot (queries cannot
// contain EDB updates), so a write reaching one is a bug worth failing
// loudly on, and the VM's panic containment turns it into a typed error on
// the session's private machine.
type Frozen struct {
	name  term.Value
	arity int
	csn   uint64
}

// NewFrozen returns relation name/arity frozen at csn.
func NewFrozen(name term.Value, arity int, csn uint64) Frozen {
	return Frozen{name: name, arity: arity, csn: csn}
}

// Name implements Rel.
func (r Frozen) Name() term.Value { return r.name }

// Arity implements Rel.
func (r Frozen) Arity() int { return r.arity }

func (r Frozen) refuse(op string) string {
	return fmt.Sprintf("storage: %s on relation %v/%d of a read-only snapshot (CSN %d)",
		op, r.name, r.arity, r.csn)
}

// Insert implements Rel by panicking.
func (r Frozen) Insert(term.Tuple) bool { panic(r.refuse("Insert")) }

// Delete implements Rel by panicking.
func (r Frozen) Delete(term.Tuple) bool { panic(r.refuse("Delete")) }

// Clear implements Rel by panicking.
func (r Frozen) Clear() { panic(r.refuse("Clear")) }

// Grow implements Rel by panicking.
func (r Frozen) Grow(int) { panic(r.refuse("Grow")) }

// ModifyByKey implements Rel by panicking.
func (r Frozen) ModifyByKey(uint32, []term.Tuple) { panic(r.refuse("ModifyByKey")) }

// Contains implements Rel as a whole-tuple Lookup (the live hash table is
// writer-owned and unversioned).
func (r *SnapRel) Contains(t term.Tuple) bool {
	found := false
	r.Lookup(fullColsMask(r.arity), t, func(term.Tuple) bool { found = true; return false })
	return found
}

// Scan implements Rel; visible tuples are visited in insertion order.
func (r *SnapRel) Scan(yield func(term.Tuple) bool) {
	scanSlots(&r.rows, 0, r.rows.slots, r.dead, r.csn, r.stats, yield)
}

// Lookup implements Rel: the shared slot lookup over the captured rows at
// the snapshot's CSN.
func (r *SnapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	if mask == 0 || r.rows.slots == 0 {
		r.Scan(yield)
		return
	}
	var dead Stamps
	if r.anyDead {
		dead = (*deadStamps)(&r.dead)
	}
	LookupSlots(r.idx, &r.rows, r.rows.slots, 0, r.rows.slots, true, dead, r.csn, mask, key, r.stats, yield)
}

// All implements Rel; the visible tuples in insertion order.
func (r *SnapRel) All() []term.Tuple { return allSlots(&r.rows, r.dead, r.csn, r.n) }

// fullColsMask returns the bitmask selecting every column of an
// arity-column relation.
func fullColsMask(arity int) uint32 { return (uint32(1) << uint(arity)) - 1 }
