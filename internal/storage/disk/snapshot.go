// Snapshot views over the disk engine. Capturing a snapshot pins the run
// manifest — the current run list of every relation, by reference count —
// plus a copy-on-write view of each memtable (storage.CaptureRel). The
// visibility rule is the same on both layers: a row is visible at snapshot
// CSN S if its dead stamp / tombstone CSN is 0 or > S, loaded atomically
// against the live writer. Pinned runs stay readable even after compaction
// replaces and unlinks them (the reference count holds the file handle
// open); closing the view releases the pins.
package disk

import (
	"fmt"
	"sync"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// SnapshotView implements storage.Backend. Must be called at a statement
// boundary; the view may then be read concurrently with later writers.
func (s *Store) SnapshotView() (storage.SnapshotStore, error) {
	ss := &snapStore{
		csn:  s.commitCSN.Load(),
		rels: make(map[string]storage.Rel),
	}
	s.mu.RLock()
	order := append([]*Rel(nil), s.order...)
	s.mu.RUnlock()
	for _, r := range order {
		// relMu makes the load-and-retain atomic against a concurrent
		// compactor install releasing the runs it just replaced.
		r.relMu.Lock()
		runs := append([]*run(nil), *r.runs.Load()...)
		for _, rn := range runs {
			rn.retain()
		}
		r.relMu.Unlock()
		ss.pinned = append(ss.pinned, runs...)
		sr := &snapRel{
			src:     r,
			csn:     ss.csn,
			runs:    runs,
			mem:     storage.CaptureRel(r.mem, ss.csn, &ss.stats),
			version: r.version,
			stats:   &ss.stats,
		}
		ss.rels[relKey(r.name, r.arity)] = sr
	}
	return ss, nil
}

// snapStore is the storage.SnapshotStore over a disk store.
type snapStore struct {
	csn   uint64
	stats storage.Stats
	mu    sync.RWMutex
	rels  map[string]storage.Rel

	pinned    []*run
	closeOnce sync.Once
}

var _ storage.SnapshotStore = (*snapStore)(nil)

// CSN implements storage.SnapshotStore.
func (s *snapStore) CSN() uint64 { return s.csn }

// Ensure implements storage.Store: a missing relation yields an empty
// read-only placeholder.
func (s *snapStore) Ensure(name term.Value, arity int) storage.Rel {
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
	r = storage.PlaceholderRel(name, arity, s.csn, &s.stats)
	s.rels[k] = r
	return r
}

// Get implements storage.Store.
func (s *snapStore) Get(name term.Value, arity int) (storage.Rel, bool) {
	s.mu.RLock()
	r, ok := s.rels[relKey(name, arity)]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r, true
}

// Drop implements storage.Store as a no-op: the snapshot is immutable.
func (s *snapStore) Drop(name term.Value, arity int) {}

// Names implements storage.Store.
func (s *snapStore) Names() []storage.RelName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]storage.RelName, 0, len(s.rels))
	for _, r := range s.rels {
		out = append(out, storage.RelName{Name: r.Name(), Arity: r.Arity()})
	}
	return out
}

// Stats implements storage.Store.
func (s *snapStore) Stats() *storage.Stats { return &s.stats }

// SetJournal implements storage.Store as a no-op.
func (s *snapStore) SetJournal(j storage.Journal) {}

// Close releases the pinned runs. Unlike a main-memory snapshot — where
// abandonment only costs memory until the GC runs — a disk snapshot holds
// run file handles open, so sessions should close their views.
func (s *snapStore) Close() error {
	s.closeOnce.Do(func() {
		for _, rn := range s.pinned {
			rn.release()
		}
		s.pinned = nil
	})
	return nil
}

// snapRel is one disk relation frozen at a snapshot CSN.
type snapRel struct {
	src     *Rel
	csn     uint64
	runs    []*run
	mem     storage.Rel
	version uint64
	stats   *storage.Stats

	lenOnce sync.Once
	n       int
}

var _ storage.Rel = (*snapRel)(nil)

// Name implements storage.Rel.
func (r *snapRel) Name() term.Value { return r.src.name }

// Arity implements storage.Rel.
func (r *snapRel) Arity() int { return r.src.arity }

// Len implements storage.Rel, counted lazily.
func (r *snapRel) Len() int {
	r.lenOnce.Do(func() {
		n := r.mem.Len()
		for _, rn := range r.runs {
			n += rn.liveAt(r.csn)
		}
		r.n = n
	})
	return r.n
}

// Version implements storage.Rel (the value at capture).
func (r *snapRel) Version() uint64 { return r.version }

// DistinctEst implements storage.Rel from the live digest, like the
// main-memory snapshot relation.
func (r *snapRel) DistinctEst(col int) int { return r.src.DistinctEst(col) }

// CostProfile implements storage.Coster from the live relation, so session
// planners weigh snapshot reads with the same disk-access factors.
func (r *snapRel) CostProfile() storage.CostProfile { return r.src.CostProfile() }

func (r *snapRel) readOnly(op string) string {
	return fmt.Sprintf("storage: %s on relation %v/%d of a read-only snapshot (CSN %d)",
		op, r.src.name, r.src.arity, r.csn)
}

// Insert implements storage.Rel by panicking: snapshots are read-only.
func (r *snapRel) Insert(t term.Tuple) bool { panic(r.readOnly("Insert")) }

// Delete implements storage.Rel by panicking: snapshots are read-only.
func (r *snapRel) Delete(t term.Tuple) bool { panic(r.readOnly("Delete")) }

// Clear implements storage.Rel by panicking: snapshots are read-only.
func (r *snapRel) Clear() { panic(r.readOnly("Clear")) }

// Grow implements storage.Rel by panicking: snapshots are read-only.
func (r *snapRel) Grow(n int) { panic(r.readOnly("Grow")) }

// ModifyByKey implements storage.Rel by panicking: snapshots are read-only.
func (r *snapRel) ModifyByKey(mask uint32, rows []term.Tuple) {
	panic(r.readOnly("ModifyByKey"))
}

// Contains implements storage.Rel: the captured memtable, then a point
// probe of the pinned runs at the snapshot's CSN.
func (r *snapRel) Contains(t term.Tuple) bool {
	if r.mem.Contains(t) {
		return true
	}
	rn, _, _ := probeRuns(r.runs, r.src.st.cache, r.stats, t.Hash(), t, r.csn)
	return rn != nil
}

// Scan implements storage.Rel: pinned runs in flush order, then the
// captured memtable — the insertion order of the captured state.
func (r *snapRel) Scan(yield func(term.Tuple) bool) {
	r.src.scanAt(r.runs, r.mem, r.csn, r.stats, yield)
}

// Lookup implements storage.Rel at the snapshot's CSN, as the live
// relation does; the captured memtable view shares its memtable's index
// holder.
func (r *snapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	switch {
	case mask == 0:
		r.Scan(yield)
	case mask == r.src.fullMask():
		found := false
		r.mem.Lookup(mask, key, func(t term.Tuple) bool {
			found = true
			return yield(t)
		})
		if !found {
			r.src.yieldProbe(r.runs, r.csn, r.stats, key, yield)
		}
	case r.src.lookupRuns(r.runs, r.csn, r.stats, mask, key, yield):
		r.mem.Lookup(mask, key, yield)
	}
}

// All implements storage.Rel.
func (r *snapRel) All() []term.Tuple { return all(r) }
