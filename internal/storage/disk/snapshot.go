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
	"sync"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// SnapshotView implements storage.Backend. Must be called at a statement
// boundary; the view may then be read concurrently with later writers.
func (s *Store) SnapshotView() (storage.SnapshotStore, error) {
	ss := &snapStore{SnapStore: storage.NewSnapStore(s.commitCSN.Load())}
	csn, stats := ss.CSN(), ss.Stats()
	s.mu.RLock()
	rels := s.rels.Rels()
	s.mu.RUnlock()
	for _, r := range rels {
		// relMu makes the load-and-retain atomic against a concurrent
		// compactor install releasing the runs it just replaced.
		r.relMu.Lock()
		runs := append([]*run(nil), *r.runs.Load()...)
		for _, rn := range runs {
			rn.retain()
		}
		r.relMu.Unlock()
		ss.pinned = append(ss.pinned, runs...)
		ss.Capture(&snapRel{
			Frozen:  storage.NewFrozen(r.name, r.arity, csn),
			src:     r,
			csn:     csn,
			runs:    runs,
			mem:     storage.CaptureRel(r.mem, csn, stats),
			version: r.version,
			stats:   stats,
		})
	}
	return ss, nil
}

// snapStore is the storage.SnapshotStore over a disk store: the shared
// snapshot catalog plus the runs its relations pin.
type snapStore struct {
	*storage.SnapStore
	pinned    []*run
	closeOnce sync.Once
}

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
	storage.Frozen
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
