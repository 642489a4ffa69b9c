package storage

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"gluenail/internal/term"
)

// eagerDigest is the reference the on-demand digest is checked against:
// every column folds its value on insert and un-counts it on delete, and
// Clear resets it — the digest a relation kept before it folded on demand.
type eagerDigest []colStats

func (d eagerDigest) insert(t term.Tuple) {
	for c := range d {
		d[c].fold(t[c].Hash())
	}
}

func (d eagerDigest) delete(t term.Tuple) {
	for c := range d {
		d[c].remove(t[c].Hash())
	}
}

func (d eagerDigest) clear() {
	for c := range d {
		d[c].reset()
	}
}

// TestDistinctEstMatchesEagerInsertOnly checks that folding on demand
// changes no estimate on insert-only histories: at every checkpoint —
// below, across and far past the 256-value exact-to-sketch switch — each
// column's estimate equals the eager digest's.
func TestDistinctEstMatchesEagerInsertOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := NewRelation(term.NewString("d"), 3, IndexNever, nil)
	eager := make(eagerDigest, 3)
	for i := 0; i < 6000; i++ {
		row := it(int64(i%7), int64(rng.Intn(400)), int64(i))
		if rel.Insert(row) {
			eager.insert(row)
		}
		if i%37 != 0 && i != 255 && i != 256 && i != 257 {
			continue
		}
		for c := range eager {
			if got, want := rel.DistinctEst(c), eager[c].estimate(); got != want {
				t.Fatalf("after %d inserts: column %d estimate %d, eager %d", i+1, c, got, want)
			}
		}
	}
}

// TestDistinctEstAgainstEagerWithDeletes interleaves inserts, deletes,
// compactions and clears with estimates taken at random points, so slots
// are deleted both before and after the digest folded them. A column that
// never holds 256 distinct values is estimated exactly; a column that
// passes the sketch switch is never estimated above the eager digest.
func TestDistinctEstAgainstEagerWithDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := NewRelation(term.NewString("d"), 3, IndexNever, nil)
	eager := make(eagerDigest, 3)
	var live []term.Tuple
	deleteAt := func(i int) {
		if !rel.Delete(live[i]) {
			t.Fatalf("delete of live row %v failed", live[i])
		}
		eager.delete(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	compactions, checks := 0, 0
	for step := 0; step < 40000; step++ {
		switch op := rng.Intn(100); {
		case op < 55:
			row := it(int64(rng.Intn(200)), int64(rng.Intn(1000)), int64(step))
			if rel.Insert(row) {
				eager.insert(row)
				live = append(live, row)
			}
		case op < 80 && len(live) > 0:
			deleteAt(rng.Intn(len(live)))
		case op < 83:
			for k := len(live) * 7 / 10; k > 0; k-- {
				tombs := rel.tombs
				deleteAt(rng.Intn(len(live)))
				if tombs > 0 && rel.tombs == 0 {
					compactions++
				}
			}
		case op < 84:
			rel.Clear()
			eager.clear()
			live = live[:0]
		default:
			checks++
			distinct := map[string]bool{}
			for _, row := range live {
				distinct[string(term.AppendValue(nil, row[0]))] = true
			}
			if got := rel.DistinctEst(0); got != len(distinct) {
				t.Fatalf("step %d: column 0 estimate %d, %d distinct values live", step, got, len(distinct))
			}
			for c := 1; c < 3; c++ {
				if got, want := rel.DistinctEst(c), eager[c].estimate(); got > want {
					t.Fatalf("step %d: column %d estimate %d above the eager digest's %d", step, c, got, want)
				}
			}
		}
	}
	if compactions == 0 || checks == 0 {
		t.Fatalf("history ran %d compactions and %d checks, want some of each", compactions, checks)
	}
}

// TestSnapshotDistinctEstConcurrentWithWriter runs snapshot sessions'
// estimates — which fold the shared digest from their captured arrays —
// while the writer inserts, deletes, compacts and clears (run it under
// -race). Afterwards the live digest of a column with few distinct values
// must still be exact: no snapshot folded a row the writer had deleted.
func TestSnapshotDistinctEstConcurrentWithWriter(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	rel := s.Ensure(name, 2).(*Relation)
	const readers = 4
	snaps := make(chan *SnapStore, readers) // one queued snapshot per reader
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				sr := mustSnapRel(nil, snap, name, 2)
				for i := 0; i < 20; i++ {
					if est := sr.DistinctEst(i % 2); est < 0 {
						t.Errorf("snapshot estimate %d", est)
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	var live []term.Tuple
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 60:
			row := it(int64(rng.Intn(50)), int64(step))
			rel.Insert(row)
			live = append(live, row)
		case op < 95 && len(live) > 0:
			i := rng.Intn(len(live))
			rel.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 96:
			rel.Clear()
			live = live[:0]
		default:
			rel.DistinctEst(1)
		}
		if step%50 == 0 {
			s.AdvanceCSN()
			select {
			case snaps <- s.Snapshot():
			default:
			}
		}
	}
	close(snaps)
	wg.Wait()
	distinct := map[string]bool{}
	for _, row := range live {
		distinct[string(term.AppendValue(nil, row[0]))] = true
	}
	if got := rel.DistinctEst(0); got != len(distinct) {
		t.Fatalf("live column 0 estimate %d after concurrent snapshot folds, %d distinct values live", got, len(distinct))
	}
}

// TestSnapshotDistinctEstAfterLaterDelete checks the case the fold
// generation exists for: the writer outgrows the arrays a snapshot
// captured, so later dead stamps land only in the live copies, and then
// deletes a captured row no estimate has folded yet. The snapshot's
// captured arrays still show that row live; folding it from them would
// count a deleted value for good.
func TestSnapshotDistinctEstAfterLaterDelete(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	rel := s.Ensure(name, 2)
	for i := int64(0); i < 10; i++ {
		rel.Insert(it(100+i, i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	for i := int64(10); i < 1000; i++ {
		rel.Insert(it(i%10, i))
	}
	rel.Delete(it(103, 3))
	s.AdvanceCSN()
	mustSnapRel(t, snap, name, 2).DistinctEst(0)
	if got := rel.DistinctEst(0); got != 19 {
		t.Fatalf("live column 0 estimate %d, want 19 distinct values", got)
	}
}

// TestInsertStatsAllocs pins what filling a Grow-sized relation allocates
// for statistics: nothing. Grow sizes its row storage, slot arrays and hash
// table, so inserting thousands of distinct values allocates no object at
// all — the digest is folded only when the planner asks.
func TestInsertStatsAllocs(t *testing.T) {
	const n = 2048
	rows := make([]term.Tuple, n)
	for i := range rows {
		rows[i] = it(int64(i), int64(i%300))
	}
	rel := NewRelation(term.NewString("g"), 2, IndexNever, nil)
	rel.Grow(n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, row := range rows {
		rel.Insert(row)
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("filling a Grow-sized relation with %d rows allocates %d objects, want 0", n, allocs)
	}
	if rel.Len() != n {
		t.Fatalf("relation holds %d rows, want %d", rel.Len(), n)
	}
}

// TestInsertBytesPerRow gates the bytes a stored row costs: the least
// TotalAlloc of 5 fresh relations, each filled with 4 096 two-int rows
// through Insert, per row. It counts the chunked row storage and the hash
// table, both grown as the rows arrive. Measured 69.5 bytes per row, bound
// measured plus 25% (Go 1.24, linux/amd64); 97.5 while the hash table
// doubled an 8-byte hash and a 4-byte ref per slot, 215.3 while each row also had
// a tuple header and a dead stamp in arrays grown by doubling, 326.7 with
// 80-byte values.
func TestInsertBytesPerRow(t *testing.T) {
	const n, rels, bound = 4096, 5, 87.0
	rows := make([]term.Tuple, n)
	for i := range rows {
		rows[i] = it(int64(i), int64(-i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < rels; r++ {
		runtime.ReadMemStats(&before)
		rel := NewRelation(term.NewString("g"), 2, IndexNever, nil)
		for _, row := range rows {
			rel.Insert(row)
		}
		runtime.ReadMemStats(&after)
		if rel.Len() != n {
			t.Fatalf("relation holds %d rows, want %d", rel.Len(), n)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perRow := float64(least) / n
	t.Logf("inserting %d two-int rows allocates %.1f bytes per row (bound %.0f)", n, perRow, bound)
	if perRow > bound {
		t.Errorf("inserting %d two-int rows allocates %.1f bytes per row, want <= %.0f", n, perRow, bound)
	}
}

// relSink keeps TestNewRelationAllocs' relations on the heap.
var relSink *Relation

// TestNewRelationAllocs pins what creating a relation costs: one object,
// the Relation itself. Its hash table and column digests wait for the
// first insert (or Grow) and the first estimate, so a frame temporary that
// stays empty, or is only scanned, pays for neither. (It was three: a hash
// map and the digests were made up front.) The object may not grow either:
// a frame temporary pays for every field.
func TestNewRelationAllocs(t *testing.T) {
	stats := &Stats{}
	name := term.NewString("tmp")
	allocs := testing.AllocsPerRun(100, func() {
		relSink = NewRelation(name, 3, IndexAdaptive, stats)
	})
	if allocs != 1 {
		t.Errorf("NewRelation allocates %.0f objects, want 1", allocs)
	}
	// 312 bytes (Go 1.24, linux/amd64); 336 with a row-header slice and
	// the chunk cursors.
	if size := unsafe.Sizeof(Relation{}); size > 312 {
		t.Errorf("a Relation is %d bytes, want <= 312", size)
	}
}
