// Multi-version snapshot reads: SnapStore/SnapRel give a concurrent read
// session an immutable, statement-boundary view of a MemStore while the
// (single) writer keeps committing.
//
// The mechanism is copy-on-write through the garbage collector rather than
// copy-on-read: capturing a snapshot copies only slice headers (tuples,
// dead stamps) under the writer's statement-boundary lock.
// Appends by the writer land beyond the captured length; structural
// rewrites (compact, Clear) of a captured slot numbering swap in fresh
// backing arrays; and deletions stamp the shared dead slice with the
// deleting statement's CSN, which snapshot readers load atomically and
// compare against their snapshot CSN.
// A slot is visible at snapshot CSN S iff its dead stamp is 0 or > S. The
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
	var buf [64]byte
	s.mu.RLock()
	r, ok := s.rels[string(appendRelKey(buf[:0], name, arity))]
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

// SnapRel is one relation frozen at a snapshot CSN: a view of the captured
// slot numbering — its rows and dead stamps, the CSN they are read at, and
// the numbering's index holder — over the functions the live relation
// reads with. Write methods panic: the executor only routes reads at a
// snapshot (queries cannot contain EDB updates), so a write reaching here
// is a bug worth failing loudly on, and the VM's panic containment turns
// it into a typed error on the session's private machine.
type SnapRel struct {
	name  term.Value
	arity int
	// Captured headers; the writer appends past len and rewrites via
	// fresh arrays, so everything below len is frozen except the dead
	// stamps, which are loaded atomically.
	rows []term.Tuple
	dead []uint64
	csn  uint64
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

func newSnapRel(r *Relation, csn uint64, stats *Stats) *SnapRel {
	n := r.n
	if r.lastStamp > csn {
		n += r.stamped
	}
	r.captured.Store(true)
	return &SnapRel{
		name:    r.name,
		arity:   r.arity,
		rows:    r.tuples,
		dead:    r.dead,
		csn:     csn,
		n:       n,
		anyDead: r.tombs > 0,
		idx:     r.indexes(),
		src:     r,
		foldGen: r.foldGen,
		version: r.version,
		stats:   stats,
	}
}

// Name implements Rel.
func (r *SnapRel) Name() term.Value { return r.name }

// Arity implements Rel.
func (r *SnapRel) Arity() int { return r.arity }

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
	return r.src.distinctEst(col, r.foldGen, r.rows, r.dead)
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

// Grow implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Grow(n int) { panic(r.readOnly("Grow")) }

// ModifyByKey implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) ModifyByKey(mask uint32, rows []term.Tuple) {
	panic(r.readOnly("ModifyByKey"))
}

// Contains implements Rel as a whole-tuple Lookup (the live hash chains
// are writer-owned and unversioned).
func (r *SnapRel) Contains(t term.Tuple) bool {
	found := false
	r.Lookup(fullColsMask(r.arity), t, func(term.Tuple) bool { found = true; return false })
	return found
}

// Scan implements Rel; visible tuples are visited in insertion order.
func (r *SnapRel) Scan(yield func(term.Tuple) bool) {
	scanSlots(r.rows, r.dead, r.csn, r.stats, yield)
}

// Lookup implements Rel: the shared slot lookup over the captured rows at
// the snapshot's CSN.
func (r *SnapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	if mask == 0 || len(r.rows) == 0 {
		r.Scan(yield)
		return
	}
	var dead Stamps
	if r.anyDead {
		dead = (*deadStamps)(&r.dead)
	}
	LookupSlots(r.idx, r.rows, dead, r.csn, mask, key, r.stats, yield)
}

// All implements Rel; the visible tuples in insertion order.
func (r *SnapRel) All() []term.Tuple { return allSlots(r.rows, r.dead, r.csn, r.n) }

// fullColsMask returns the bitmask selecting every column of an
// arity-column relation.
func fullColsMask(arity int) uint32 { return (uint32(1) << uint(arity)) - 1 }
