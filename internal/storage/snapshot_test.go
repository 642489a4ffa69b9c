package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gluenail/internal/term"
)

// snapAll drains a snapshot relation through Scan.
func snapAll(r Rel) []term.Tuple {
	var out []term.Tuple
	r.Scan(func(t term.Tuple) bool { out = append(out, t); return true })
	return out
}

func tuplesEqual(a, b []term.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotSeesCaptureState(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 10; i++ {
		r.Insert(it(i, i+1))
	}
	s.AdvanceCSN()

	snap := s.Snapshot()
	before := snapAll(mustSnapRel(t, snap, name, 2))

	// Writer keeps going: deletes, inserts, commits.
	r.Delete(it(3, 4))
	r.Insert(it(100, 101))
	s.AdvanceCSN()

	after := snapAll(mustSnapRel(t, snap, name, 2))
	if !tuplesEqual(before, after) {
		t.Fatalf("snapshot changed under writer:\nbefore %v\nafter  %v", before, after)
	}
	if len(before) != 10 {
		t.Fatalf("snapshot sees %d tuples, want 10", len(before))
	}
	// The live view sees the new state.
	if r.Contains(it(3, 4)) || !r.Contains(it(100, 101)) {
		t.Fatal("live view missing writer's changes")
	}
	// A fresh snapshot sees the new state too.
	snap2 := s.Snapshot()
	sr2 := mustSnapRel(t, snap2, name, 2)
	if sr2.Contains(it(3, 4)) || !sr2.Contains(it(100, 101)) {
		t.Fatal("fresh snapshot missing committed changes")
	}
}

func TestSnapshotUncommittedDeleteInvisibleToNewSnapshot(t *testing.T) {
	// A delete stamped at commitCSN+1 must stay invisible to snapshots taken
	// at the current CSN until AdvanceCSN publishes it... but snapshots are
	// only captured at statement boundaries (no writer in flight), so the
	// observable contract is: a snapshot taken BEFORE the delete commits
	// still sees the tuple; one taken after does not.
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 1)
	r.Insert(it(1))
	r.Insert(it(2))
	s.AdvanceCSN()

	old := s.Snapshot()
	r.Delete(it(1))
	s.AdvanceCSN()
	fresh := s.Snapshot()

	if got := len(snapAll(mustSnapRel(t, old, name, 1))); got != 2 {
		t.Fatalf("old snapshot sees %d tuples, want 2", got)
	}
	if got := len(snapAll(mustSnapRel(t, fresh, name, 1))); got != 1 {
		t.Fatalf("fresh snapshot sees %d tuples, want 1", got)
	}
	if o, f := mustSnapRel(t, old, name, 1).Len(), mustSnapRel(t, fresh, name, 1).Len(); o != 2 || f != 1 {
		t.Fatalf("Len = %d (old), %d (fresh), want 2, 1", o, f)
	}

	// A statement that deletes and then aborts leaves its stamp above the
	// commit CSN: a snapshot taken before the next commit still sees the
	// tuple, and counts it.
	r.Delete(it(2))
	aborted := mustSnapRel(t, s.Snapshot(), name, 1)
	if got, n := len(snapAll(aborted)), aborted.Len(); got != 1 || n != 1 {
		t.Fatalf("snapshot after an uncommitted delete: scan %d, Len %d, want 1, 1", got, n)
	}
}

func TestSnapshotSurvivesCompactionAndClear(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 1)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	before := snapAll(mustSnapRel(t, snap, name, 1))

	// Delete enough to trigger compaction (tombs > n && tombs > 32).
	for i := int64(0); i < 80; i++ {
		r.Delete(it(i))
	}
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across compaction: %d vs %d tuples", len(before), len(got))
	}

	if n := mustSnapRel(t, s.Snapshot(), name, 1).Len(); n != 20 {
		t.Fatalf("post-compaction snapshot Len = %d, want 20", n)
	}

	r.Clear()
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across Clear: %d vs %d tuples", len(before), len(got))
	}
	if live := r.Len(); live != 0 {
		t.Fatalf("live Len = %d after Clear", live)
	}
	if n := mustSnapRel(t, snap, name, 1).Len(); n != 100 {
		t.Fatalf("pre-compaction snapshot Len = %d after Clear, want 100", n)
	}
	if n := mustSnapRel(t, s.Snapshot(), name, 1).Len(); n != 0 {
		t.Fatalf("post-Clear snapshot Len = %d, want 0", n)
	}
}

// TestSnapshotSurvivesClearAndRefill: Clear reuses a relation's arrays
// only while no snapshot has captured them. A relation cleared after a
// capture and refilled with other tuples must leave the snapshot reading
// exactly what it captured.
func TestSnapshotSurvivesClearAndRefill(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 1)
	for i := int64(0); i < 64; i++ {
		r.Insert(it(i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	before := snapAll(mustSnapRel(t, snap, name, 1))
	r.Clear()
	for i := int64(1000); i < 1064; i++ {
		r.Insert(it(i))
	}
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across Clear and refill: %v..., want %v...", got[:4], before[:4])
	}
	if r.Len() != 64 || !r.Contains(it(1000)) || r.Contains(it(0)) {
		t.Fatal("live relation does not hold exactly the refilled tuples")
	}
}

func TestSnapshotLookupAndIndexes(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 50; i++ {
		r.Insert(it(i%5, i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	sr := mustSnapRel(t, snap, name, 2)

	// Writer deletes some rows the snapshot must keep serving.
	for i := int64(0); i < 50; i += 2 {
		r.Delete(it(i%5, i))
	}
	s.AdvanceCSN()

	count := func() int {
		n := 0
		sr.Lookup(1, it(2, 0), func(t term.Tuple) bool { n++; return true })
		return n
	}
	first := count()
	if first != 10 {
		t.Fatalf("snapshot lookup returned %d rows, want 10", first)
	}
	// Hammer the same mask until the shared index builds, and check
	// the answer is identical through the index.
	for i := 1; i < adaptiveFactor; i++ {
		count()
	}
	if sr.(*SnapRel).idx.forMask(1).ix.Load() == nil {
		t.Fatal("shared index not built after repeated lookups")
	}
	if got := count(); got != first {
		t.Fatalf("indexed lookup returned %d rows, want %d", got, first)
	}
	// Contains consults visibility too.
	if !sr.Contains(it(0, 0)) {
		t.Fatal("snapshot lost a tuple deleted after capture")
	}
	if sr.Contains(it(99, 99)) {
		t.Fatal("snapshot invented a tuple")
	}
	// Len counts visible tuples at capture.
	if sr.Len() != 50 {
		t.Fatalf("snapshot Len = %d, want 50", sr.Len())
	}
}

func TestSnapshotMissingRelationIsEmpty(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	snap := s.Snapshot()
	r := snap.Ensure(term.NewString("ghost"), 3)
	if r.Len() != 0 {
		t.Fatal("placeholder relation not empty")
	}
	if _, ok := snap.Get(term.NewString("ghost2"), 1); ok {
		t.Fatal("Get invented a relation")
	}
	var n int
	r.Scan(func(term.Tuple) bool { n++; return true })
	if n != 0 {
		t.Fatal("placeholder scan yielded tuples")
	}
}

func TestSnapshotWritesPanic(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	s.Ensure(name, 1).Insert(it(1))
	snap := s.Snapshot()
	sr := mustSnapRel(t, snap, name, 1)
	for op, fn := range map[string]func(){
		"Insert":      func() { sr.Insert(it(9)) },
		"Delete":      func() { sr.Delete(it(1)) },
		"Clear":       func() { sr.Clear() },
		"Grow":        func() { sr.Grow(1) },
		"ModifyByKey": func() { sr.ModifyByKey(1, []term.Tuple{it(9)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on snapshot relation did not panic", op)
				}
			}()
			fn()
		}()
	}
}

// TestSnapshotConcurrentWithWriter races 8 snapshot readers (scans, lookups,
// Contains, index builds) against a committing writer; run with -race.
func TestSnapshotConcurrentWithWriter(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 200; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()

	snap := s.Snapshot()
	want := len(snapAll(mustSnapRel(t, snap, name, 2)))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sr := mustSnapRel(nil, snap, name, 2)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := len(snapAll(sr)); got != want {
					errs <- fmt.Errorf("worker %d iter %d: scan saw %d tuples, want %d", w, iter, got, want)
					return
				}
				n := 0
				sr.Lookup(1, it(int64(iter%10), 0), func(term.Tuple) bool { n++; return true })
				if n != want/10 {
					errs <- fmt.Errorf("worker %d iter %d: lookup saw %d rows, want %d", w, iter, n, want/10)
					return
				}
				if !sr.Contains(it(int64(iter%10), int64(iter%200/10*10+iter%10))) {
					// Tuple layout: it(i%10, i) for i in [0,200); probe one
					// that exists: (k, i) with i%10==k.
					_ = n
				}
			}
		}(w)
	}

	// Writer: interleave deletes, inserts, commits, compaction, a Clear at
	// the end.
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 4; i++ {
			r.Delete(it((int64(round)+i)%10, int64(round)*4+i))
			r.Insert(it(int64(round)%10, 1000+int64(round)*4+i))
		}
		s.AdvanceCSN()
	}
	r.Clear()
	s.AdvanceCSN()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func mustSnapRel(t *testing.T, snap *SnapStore, name term.Value, arity int) Rel {
	r, ok := snap.Get(name, arity)
	if !ok {
		if t != nil {
			t.Helper()
			t.Fatalf("snapshot missing relation %v/%d", name, arity)
		}
		panic("snapshot missing relation")
	}
	return r
}

// snapOracle answers a lookup by filtering the tuples a snapshot was
// captured with, in insertion order.
func snapOracle(want []term.Tuple, mask uint32, key term.Tuple) []term.Tuple {
	var out []term.Tuple
	for _, u := range want {
		if u.EqualCols(key, mask) {
			out = append(out, u)
		}
	}
	return out
}

func lookupAll(r Rel, mask uint32, key term.Tuple) []term.Tuple {
	var out []term.Tuple
	r.Lookup(mask, key, func(t term.Tuple) bool { out = append(out, t); return true })
	return out
}

// TestSnapshotSharedIndexUnderLiveWriter pins snapshots at many CSNs —
// some before a compaction or a Clear renumbers the slots — while a writer
// keeps inserting, deleting, compacting and clearing, and readers hammer
// every pinned snapshot through the shared indexes. Every Lookup and
// Contains must equal a filtered scan of the tuples the snapshot was
// captured with, in the same order, and Len their count. Run with -race.
func TestSnapshotSharedIndexUnderLiveWriter(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2).(*Relation)
	for i := int64(0); i < 300; i++ {
		r.Insert(it(i%7, i))
	}
	s.AdvanceCSN()

	type pinned struct {
		snap *SnapStore
		rel  Rel
		want []term.Tuple
	}
	var (
		mu   sync.Mutex
		pins []pinned
	)
	capture := func() {
		s.AdvanceCSN()
		snap := s.Snapshot()
		p := pinned{snap, mustSnapRel(t, snap, name, 2), r.All()}
		mu.Lock()
		pins = append(pins, p)
		mu.Unlock()
	}
	capture()

	var wg sync.WaitGroup
	var iters atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				iters.Add(1)
				mu.Lock()
				p := pins[(iter*(w+1))%len(pins)]
				mu.Unlock()
				if p.rel.Len() != len(p.want) {
					errs <- fmt.Errorf("worker %d: Len %d, want %d", w, p.rel.Len(), len(p.want))
					return
				}
				k := int64(iter % 7)
				for _, q := range []struct {
					mask uint32
					key  term.Tuple
				}{{0b01, it(k, 0)}, {0b10, it(0, int64(iter%400))}, {0b11, it(k, int64(iter%400))}} {
					got, want := lookupAll(p.rel, q.mask, q.key), snapOracle(p.want, q.mask, q.key)
					if !tuplesEqual(got, want) {
						errs <- fmt.Errorf("worker %d: Lookup(%b, %v) = %v, want %v", w, q.mask, q.key, got, want)
						return
					}
				}
				probe := it(k, int64(iter%400))
				if got, want := p.rel.Contains(probe), len(snapOracle(p.want, 0b11, probe)) == 1; got != want {
					errs <- fmt.Errorf("worker %d: Contains(%v) = %v, want %v", w, probe, got, want)
					return
				}
			}
		}(w)
	}

	next := int64(300)
	for round := 0; round < 60; round++ {
		for i := 0; i < 6; i++ {
			r.Insert(it(next%7, next))
			next++
		}
		for _, u := range r.All()[:3] {
			r.Delete(u)
		}
		switch {
		case round%15 == 7:
			r.compact()
		case round == 40:
			r.Clear()
			for i := 0; i < 50; i++ {
				r.Insert(it(next%7, next))
				next++
			}
		}
		capture()
		// Let the readers work on this state before the writer moves on.
		for iters.Load() < int64(round+1)*40 && len(errs) == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	var builds, probed int64
	for _, p := range pins {
		builds += p.snap.Stats().IndexBuilds
		probed += p.snap.Stats().RowsProbed
	}
	if builds == 0 || probed == 0 {
		t.Fatalf("readers never went through a shared index (builds %d, rows probed %d)", builds, probed)
	}
}

// TestSnapshotIndexReuse: a snapshot taken after a few appends answers
// through the index an earlier snapshot built, plus a scan of its tail, and
// a lookup on the steady path allocates nothing.
func TestSnapshotIndexReuse(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 200; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()
	snap1 := s.Snapshot()
	sr1 := mustSnapRel(t, snap1, name, 2)
	key := it(3, 0)
	for i := 0; i < adaptiveFactor; i++ {
		lookupAll(sr1, 1, key)
	}
	if snap1.Stats().IndexBuilds != 1 {
		t.Fatalf("first snapshot built %d indexes, want 1", snap1.Stats().IndexBuilds)
	}

	for i := int64(200); i < 205; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()
	snap2 := s.Snapshot()
	sr2 := mustSnapRel(t, snap2, name, 2)
	if got, want := lookupAll(sr2, 1, key), snapOracle(sr2.All(), 1, key); !tuplesEqual(got, want) {
		t.Fatalf("second snapshot Lookup = %v, want %v", got, want)
	}
	st := snap2.Stats()
	if st.IndexBuilds != 0 || st.RowsScanned != 5 || st.RowsProbed != 20 {
		t.Fatalf("second snapshot: builds %d, scanned %d, probed %d; want 0, 5 (its tail), 20",
			st.IndexBuilds, st.RowsScanned, st.RowsProbed)
	}

	n := 0
	yield := func(term.Tuple) bool { n++; return true }
	if a := testing.AllocsPerRun(100, func() { sr1.Lookup(1, key, yield) }); a != 0 {
		t.Fatalf("indexed Lookup allocates %.1f objects, want 0", a)
	}
	probe := it(3, 13)
	for i := 0; i < adaptiveFactor; i++ {
		sr1.Contains(probe)
	}
	if a := testing.AllocsPerRun(100, func() { sr1.Contains(probe) }); a != 0 {
		t.Fatalf("indexed Contains allocates %.1f objects, want 0", a)
	}
}

// TestSnapshotTailRebuild: lookups scanning a snapshot's tail past the
// shared index accrue credit, and once it reaches the build cost the index
// is rebuilt over the longer snapshot — exactly once.
func TestSnapshotTailRebuild(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 200; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()
	sr1 := mustSnapRel(t, s.Snapshot(), name, 2)
	key := it(4, 0)
	for i := 0; i < adaptiveFactor; i++ {
		lookupAll(sr1, 1, key)
	}

	for i := int64(200); i < 220; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()
	snap2 := s.Snapshot()
	sr2 := mustSnapRel(t, snap2, name, 2)
	want2, want1 := snapOracle(sr2.All(), 1, key), snapOracle(sr1.All(), 1, key)
	// Each lookup scans a 20-row tail; the rebuild is due after 2*220 rows.
	for i := 0; i < 50; i++ {
		if got := lookupAll(sr2, 1, key); !tuplesEqual(got, want2) {
			t.Fatalf("lookup %d on the longer snapshot = %v, want %v", i, got, want2)
		}
		if got := lookupAll(sr1, 1, key); !tuplesEqual(got, want1) {
			t.Fatalf("lookup %d on the shorter snapshot = %v, want %v", i, got, want1)
		}
	}
	if b := snap2.Stats().IndexBuilds; b != 1 {
		t.Fatalf("tail scans triggered %d rebuilds, want 1", b)
	}
	if n := sr2.(*SnapRel).idx.forMask(1).ix.Load().n; n != 220 {
		t.Fatalf("rebuilt index covers %d slots, want 220", n)
	}
}

// TestSnapshotCapturedIndexFrozen: once a snapshot captured a slot
// numbering, its index holder is frozen. Live inserts must not extend the
// snapshot's index (readers probe it without a lock), and a Clear must drop
// the holder rather than reset it: the refilled relation's indexes number
// different rows, so a snapshot probing them would lose its own matches.
// Readers hammer the snapshot while the writer works.
func TestSnapshotCapturedIndexFrozen(t *testing.T) {
	s := NewMemStore(IndexAlways)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i%4, i))
	}
	s.AdvanceCSN()
	sr := mustSnapRel(t, s.Snapshot(), name, 2)
	key := it(1, 0)
	want := snapOracle(sr.All(), 1, key)
	lookupAll(sr, 1, key) // builds the captured numbering's index
	frozen := sr.(*SnapRel).idx.forMask(1).ix.Load()
	if frozen == nil || frozen.n != 100 {
		t.Fatal("setup: the snapshot's lookup built no index over its 100 rows")
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := lookupAll(sr, 1, key); !tuplesEqual(got, want) {
					errs <- fmt.Errorf("snapshot lookup = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	for i := int64(100); i < 200; i++ {
		r.Insert(it(i%4, i))
	}
	s.AdvanceCSN()
	if n := sr.(*SnapRel).idx.forMask(1).ix.Load().n; n != 100 {
		t.Errorf("live inserts extended the captured index to %d slots", n)
	}
	// Refill shifted by one key, so every slot's key differs from the
	// captured row's.
	r.Clear()
	for i := int64(0); i < 200; i++ {
		r.Insert(it((i+1)%4, 1000+i))
	}
	s.AdvanceCSN()
	var live []term.Tuple
	for i := int64(0); i < 200; i++ {
		if (i+1)%4 == 1 {
			live = append(live, it(1, 1000+i))
		}
	}
	if got := lookupAll(r, 1, key); !tuplesEqual(got, live) {
		t.Errorf("live lookup after refill = %v, want %v", got, live)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := lookupAll(sr, 1, key); !tuplesEqual(got, want) {
		t.Fatalf("snapshot lookup after the refill = %v, want %v", got, want)
	}
	if sr.(*SnapRel).idx.forMask(1).ix.Load() != frozen {
		t.Fatal("the captured index was replaced")
	}
}
