package storage

import (
	"fmt"
	"sync"
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

	r.Clear()
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across Clear: %d vs %d tuples", len(before), len(got))
	}
	if live := r.Len(); live != 0 {
		t.Fatalf("live Len = %d after Clear", live)
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
	// Hammer the same mask until the snapshot-local index builds, and check
	// the answer is identical through the index.
	for i := 1; i < adaptiveFactor; i++ {
		count()
	}
	if sr.(*SnapRel).index(1) == nil {
		t.Fatal("snapshot-local index not built after repeated lookups")
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
		"UnionDiff":   func() { sr.UnionDiff([]term.Tuple{it(9)}) },
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
