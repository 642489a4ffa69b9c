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
// Adaptive indexes (§10) belong to the slot numbering, not to a snapshot:
// between two rewrites slot i holds the same tuple in every snapshot, so
// an index over slots [0, k) answers for all of them. Each snapshot probes
// the indexed slots below its own length, filters them by its own
// visibility, and scans the slots past k itself.
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
	dead   []uint64
	// n is the visible-tuple count, fixed at capture.
	n int
	// src is the live relation, consulted only for planner statistics
	// (DistinctEst, safe against the writer); nil for empty placeholders.
	src     *Relation
	version uint64
	stats   *Stats
	// idx holds the adaptive indexes of the captured slot numbering,
	// shared with every other snapshot of it; nil for placeholders.
	idx *snapIndexes
}

var _ Rel = (*SnapRel)(nil)

func newSnapRel(r *Relation, csn uint64, stats *Stats) *SnapRel {
	n := r.n
	if r.lastStamp > csn {
		n += r.stamped
	}
	return &SnapRel{
		name:    r.name,
		arity:   r.arity,
		csn:     csn,
		tuples:  r.tuples,
		dead:    r.dead,
		n:       n,
		src:     r,
		version: r.version,
		stats:   stats,
		idx:     r.sharedIndexes(),
	}
}

// sharedIndexes returns the index holder of the relation's current slot
// numbering, creating it at the numbering's first capture.
func (r *Relation) sharedIndexes() *snapIndexes {
	if h := r.snapIdx.Load(); h != nil {
		return h
	}
	h := new(snapIndexes)
	if r.snapIdx.CompareAndSwap(nil, h) {
		return h
	}
	return r.snapIdx.Load()
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

// Len implements Rel with the visible-tuple count captured at the snapshot.
func (r *SnapRel) Len() int { return r.n }

// Version implements Rel with the version captured at the snapshot: the
// view never changes, so neither does its version.
func (r *SnapRel) Version() uint64 { return r.version }

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

// Lookup implements Rel: the shared index of the slot numbering answers
// for the slots it covers, and the slots past it are scanned. Postings are
// in slot order, so matches come out in insertion order, as from a scan.
func (r *SnapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	if mask == 0 || len(r.tuples) == 0 {
		r.Scan(yield)
		return
	}
	m := r.idx.forMask(mask)
	ix := m.ix.Load()
	if ix == nil || ix.n < len(r.tuples) {
		ix = r.charge(m, ix, mask)
	}
	from := 0
	if ix != nil {
		from = min(ix.n, len(r.tuples))
		for _, s := range ix.postings[key.HashCols(mask)] {
			i := int(s)
			if i >= from {
				break
			}
			if r.visible(i) && r.tuples[i].EqualCols(key, mask) {
				atomic.AddInt64(&r.stats.RowsProbed, 1)
				if !yield(r.tuples[i]) {
					return
				}
			}
		}
	}
	atomic.AddInt64(&r.stats.RowsScanned, int64(len(r.tuples)-from))
	for i := from; i < len(r.tuples); i++ {
		if r.visible(i) && r.tuples[i].EqualCols(key, mask) {
			if !yield(r.tuples[i]) {
				return
			}
		}
	}
}

// All implements Rel; the visible tuples in insertion order.
func (r *SnapRel) All() []term.Tuple {
	out := make([]term.Tuple, 0, r.n)
	for i, t := range r.tuples {
		if r.visible(i) {
			out = append(out, t)
		}
	}
	return out
}

// charge accrues the rows this lookup is about to scan — every slot, or
// the slots past ix — as credit toward an index over this snapshot's
// slots, and builds it once the credit, summed over every snapshot of the
// numbering, reaches adaptiveFactor times this snapshot's length: the live
// relation's rule. One reader builds at a time; the others keep scanning.
// It returns the index the lookup should probe.
func (r *SnapRel) charge(m *maskIndex, ix *slotIndex, mask uint32) *slotIndex {
	n := len(r.tuples)
	scan := n
	if ix != nil {
		scan -= ix.n
	}
	if m.credit.Add(int64(scan)) < adaptiveFactor*int64(n) || !m.building.CompareAndSwap(false, true) {
		return ix
	}
	defer m.building.Store(false)
	if cur := m.ix.Load(); cur != nil && cur.n >= n {
		return cur // published by a reader that built before us
	}
	built := &slotIndex{n: n, postings: postings(r.tuples, mask)}
	atomic.AddInt64(&r.stats.IndexBuilds, 1)
	m.ix.Store(built)
	m.credit.Store(0)
	return built
}

// snapIndexes holds the adaptive indexes every snapshot of one slot
// numbering of a Relation shares, one maskIndex per column mask. mu guards
// only the map; the indexes themselves are immutable once published.
type snapIndexes struct {
	mu    sync.RWMutex
	masks map[uint32]*maskIndex
}

// maskIndex is the shared state of one column mask: the published index,
// the scan credit every snapshot of the numbering charges, and the flag
// that admits one builder at a time.
type maskIndex struct {
	ix       atomic.Pointer[slotIndex]
	credit   atomic.Int64
	building atomic.Bool
}

// slotIndex is an immutable hash index over slots [0, n) of a numbering.
// Postings list every slot, dead ones included — visibility is decided
// per snapshot — in ascending slot order.
type slotIndex struct {
	n        int
	postings map[uint64][]int32
}

// forMask returns the shared state for mask, creating it on first use.
func (h *snapIndexes) forMask(mask uint32) *maskIndex {
	h.mu.RLock()
	m := h.masks[mask]
	h.mu.RUnlock()
	if m != nil {
		return m
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if m = h.masks[mask]; m == nil {
		if h.masks == nil {
			h.masks = make(map[uint32]*maskIndex)
		}
		m = new(maskIndex)
		h.masks[mask] = m
	}
	return m
}

// postings groups slots [0, len(tuples)) by the hash of their mask
// columns. Counting first lets every list be carved out of one slot
// array, so a build allocates a handful of objects rather than one list
// per key.
func postings(tuples []term.Tuple, mask uint32) map[uint64][]int32 {
	keys := make([]uint64, len(tuples))
	counts := make(map[uint64]int32)
	for i, t := range tuples {
		keys[i] = t.HashCols(mask)
		counts[keys[i]]++
	}
	slots := make([]int32, len(tuples))
	out := make(map[uint64][]int32, len(counts))
	off := 0
	for k, c := range counts {
		out[k] = slots[off : off : off+int(c)]
		off += int(c)
	}
	for i, k := range keys {
		out[k] = append(out[k], int32(i))
	}
	return out
}

// fullColsMask returns the bitmask selecting every column of an
// arity-column relation.
func fullColsMask(arity int) uint32 { return (uint32(1) << uint(arity)) - 1 }
