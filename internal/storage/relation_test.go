package storage

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gluenail/internal/term"
)

func it(vals ...int64) term.Tuple {
	t := make(term.Tuple, len(vals))
	for i, v := range vals {
		t[i] = term.NewInt(v)
	}
	return t
}

func newRel(t *testing.T, arity int, policy IndexPolicy) *Relation {
	t.Helper()
	return NewRelation(term.NewString("r"), arity, policy, nil)
}

func TestInsertDeleteContains(t *testing.T) {
	r := newRel(t, 2, IndexNever)
	if !r.Insert(it(1, 2)) {
		t.Error("first insert should report new")
	}
	if r.Insert(it(1, 2)) {
		t.Error("duplicate insert should report existing")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(it(1, 2)) || r.Contains(it(2, 1)) {
		t.Error("Contains wrong")
	}
	if !r.Delete(it(1, 2)) {
		t.Error("delete of present tuple should succeed")
	}
	if r.Delete(it(1, 2)) {
		t.Error("delete of absent tuple should fail")
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
}

func TestVersionBumps(t *testing.T) {
	r := newRel(t, 1, IndexNever)
	v0 := r.Version()
	r.Insert(it(1))
	v1 := r.Version()
	if v1 == v0 {
		t.Error("insert should bump version")
	}
	r.Insert(it(1)) // duplicate: no change
	if r.Version() != v1 {
		t.Error("duplicate insert should not bump version")
	}
	r.Delete(it(2)) // absent: no change
	if r.Version() != v1 {
		t.Error("failed delete should not bump version")
	}
	r.Delete(it(1))
	if r.Version() == v1 {
		t.Error("delete should bump version")
	}
	r.Insert(it(3))
	v3 := r.Version()
	r.Clear()
	if r.Version() == v3 {
		t.Error("clear should bump version")
	}
	v4 := r.Version()
	r.Clear() // already empty
	if r.Version() != v4 {
		t.Error("clear of empty relation should not bump version")
	}
}

func TestScanVisitsAll(t *testing.T) {
	r := newRel(t, 1, IndexNever)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i))
	}
	seen := map[int64]bool{}
	r.Scan(func(tp term.Tuple) bool {
		seen[tp[0].Int()] = true
		return true
	})
	if len(seen) != 100 {
		t.Errorf("scan saw %d tuples, want 100", len(seen))
	}
	// Early termination.
	count := 0
	r.Scan(func(term.Tuple) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-terminated scan visited %d", count)
	}
}

func TestLookupFullMask(t *testing.T) {
	r := newRel(t, 2, IndexNever)
	r.Insert(it(1, 2))
	r.Insert(it(1, 3))
	var got []term.Tuple
	r.Lookup(0b11, it(1, 2), func(tp term.Tuple) bool {
		got = append(got, tp)
		return true
	})
	if len(got) != 1 || !got[0].Equal(it(1, 2)) {
		t.Errorf("full-mask lookup = %v", got)
	}
}

func TestLookupPartialMask(t *testing.T) {
	for _, policy := range []IndexPolicy{IndexNever, IndexAdaptive, IndexAlways} {
		r := newRel(t, 2, policy)
		for i := int64(0); i < 50; i++ {
			r.Insert(it(i%5, i))
		}
		for rep := 0; rep < 5; rep++ { // repeated lookups exercise adaptive build
			n := 0
			r.Lookup(0b01, it(3, 0), func(tp term.Tuple) bool {
				if tp[0].Int() != 3 {
					t.Errorf("policy %d: lookup returned non-matching %v", policy, tp)
				}
				n++
				return true
			})
			if n != 10 {
				t.Errorf("policy %d rep %d: lookup returned %d rows, want 10", policy, rep, n)
			}
		}
	}
}

func TestLookupZeroMaskScans(t *testing.T) {
	r := newRel(t, 2, IndexAlways)
	r.Insert(it(1, 2))
	r.Insert(it(3, 4))
	n := 0
	r.Lookup(0, nil, func(term.Tuple) bool { n++; return true })
	if n != 2 {
		t.Errorf("zero-mask lookup visited %d", n)
	}
}

func TestAdaptiveIndexCrossover(t *testing.T) {
	// With the adaptive policy, an index appears only after the cumulative
	// scan cost reaches the build-cost threshold (§10).
	stats := &Stats{}
	r := NewRelation(term.NewString("r"), 2, IndexAdaptive, stats)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i, i*2))
	}
	if r.HasIndex(0b01) {
		t.Fatal("index should not exist before any lookups")
	}
	r.Lookup(0b01, it(7, 0), func(term.Tuple) bool { return true })
	if r.HasIndex(0b01) {
		t.Error("one lookup should not build the index (factor 2)")
	}
	r.Lookup(0b01, it(7, 0), func(term.Tuple) bool { return true })
	if !r.HasIndex(0b01) {
		t.Error("second lookup should cross the build threshold")
	}
	if stats.IndexBuilds != 1 {
		t.Errorf("IndexBuilds = %d, want 1", stats.IndexBuilds)
	}
	// Index stays correct under subsequent mutation.
	r.Insert(it(7, 999))
	r.Delete(it(7, 14))
	var got []int64
	r.Lookup(0b01, it(7, 0), func(tp term.Tuple) bool {
		got = append(got, tp[1].Int())
		return true
	})
	if len(got) != 1 || got[0] != 999 {
		t.Errorf("post-mutation indexed lookup = %v, want [999]", got)
	}
}

func TestIndexNeverNeverBuilds(t *testing.T) {
	stats := &Stats{}
	r := NewRelation(term.NewString("r"), 2, IndexNever, stats)
	for i := int64(0); i < 20; i++ {
		r.Insert(it(i, i))
	}
	for rep := 0; rep < 10; rep++ {
		r.Lookup(0b01, it(3, 0), func(term.Tuple) bool { return true })
	}
	if stats.IndexBuilds != 0 {
		t.Errorf("IndexNever built %d indexes", stats.IndexBuilds)
	}
}

func TestIndexAlwaysBuildsOnFirstLookup(t *testing.T) {
	stats := &Stats{}
	r := NewRelation(term.NewString("r"), 2, IndexAlways, stats)
	for i := int64(0); i < 20; i++ {
		r.Insert(it(i%4, i))
	}
	r.Lookup(0b01, it(1, 0), func(term.Tuple) bool { return true })
	if stats.IndexBuilds != 1 || !r.HasIndex(0b01) {
		t.Errorf("IndexAlways should build on first lookup (builds=%d)", stats.IndexBuilds)
	}
}

// TestIndexProbeOrderSurvivesDelete: an index probe enumerates matches in
// the order a scan would, also after a delete from the middle of a bucket.
func TestIndexProbeOrderSurvivesDelete(t *testing.T) {
	r := newRel(t, 2, IndexAlways)
	for i := int64(0); i < 5; i++ {
		r.Insert(it(1, i))
	}
	r.Lookup(0b01, it(1, 0), func(term.Tuple) bool { return true })
	if !r.HasIndex(0b01) {
		t.Fatal("setup: index missing")
	}
	r.Delete(it(1, 1))
	var probed, scanned []int64
	r.Lookup(0b01, it(1, 0), func(tp term.Tuple) bool { probed = append(probed, tp[1].Int()); return true })
	r.Scan(func(tp term.Tuple) bool { scanned = append(scanned, tp[1].Int()); return true })
	if !slices.Equal(probed, scanned) || !slices.Equal(scanned, []int64{0, 2, 3, 4}) {
		t.Fatalf("index probe yields %v, scan yields %v, want [0 2 3 4] from both", probed, scanned)
	}
}

func TestClearDropsIndexes(t *testing.T) {
	r := newRel(t, 2, IndexAlways)
	r.Insert(it(1, 2))
	r.Lookup(0b01, it(1, 0), func(term.Tuple) bool { return true })
	if !r.HasIndex(0b01) {
		t.Fatal("setup: index missing")
	}
	r.Clear()
	if r.HasIndex(0b01) {
		t.Error("Clear should drop indexes")
	}
	if r.Len() != 0 {
		t.Error("Clear should empty the relation")
	}
}

// TestClearReusesArraysWithoutSnapshot: with no snapshot of the current
// slot numbering, no journal and no All since the last Clear, Clear keeps
// the relation's storage — its row chunks included — so clearing and
// refilling to the same size from one scratch tuple rewritten per row (a
// repeat loop's scratch relation, filled by a head) allocates nothing.
func TestClearReusesArraysWithoutSnapshot(t *testing.T) {
	r := newRel(t, 2, IndexAdaptive)
	rows := make([]term.Tuple, 100)
	for i := range rows {
		rows[i] = it(int64(i), int64(i%7))
	}
	scratch := make(term.Tuple, 2)
	fill := func() {
		r.Clear()
		for _, tp := range rows {
			copy(scratch, tp)
			r.Insert(scratch)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Fatalf("Clear + refill of 100 tuples allocates %.1f objects, want 0", allocs)
	}
	if got := r.All(); len(got) != len(rows) || !slices.EqualFunc(got, rows, term.Tuple.Equal) {
		t.Fatal("refilled relation does not hold the tuples in insertion order")
	}
}

// TestCompactRepointsIndexes: compaction moves the survivors' values into
// a fresh chunk and starts a new index holder over the new numbering, so
// lookups through an index yield the compacted rows and no index keeps an
// old chunk — with its dead rows — alive.
func TestCompactRepointsIndexes(t *testing.T) {
	r := newRel(t, 2, IndexAlways)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i, i%10))
	}
	r.Lookup(0b10, it(0, 3), func(term.Tuple) bool { return true }) // build the index
	for i := int64(0); i < 60; i++ {
		r.Delete(it(i, i%10))
	}
	if r.rows.slots == 100 {
		t.Fatal("the deletes did not compact")
	}
	scanned := map[int64]*term.Value{}
	r.Scan(func(u term.Tuple) bool {
		scanned[u[0].Int()] = &u[0]
		return true
	})
	for v := int64(0); v < 10; v++ {
		r.Lookup(0b10, it(0, v), func(u term.Tuple) bool {
			if &u[0] != scanned[u[0].Int()] {
				t.Fatalf("index entry %v is not the compacted row", u)
			}
			return true
		})
	}
}

// TestTableSurvivesDeleteReinsertCompactClear walks one relation's hash
// table through every edit it takes — a delete, the row's re-insert, a
// compaction and an in-place Clear — and checks after each step that
// Contains and a full-mask Lookup see exactly the live rows.
func TestTableSurvivesDeleteReinsertCompactClear(t *testing.T) {
	r := newRel(t, 2, IndexNever)
	live := map[int64]bool{}
	check := func(step string) {
		t.Helper()
		for i := int64(0); i < 100; i++ {
			row := it(i, -i)
			hits := 0
			r.Lookup(0b11, row, func(u term.Tuple) bool {
				if !u.Equal(row) {
					t.Fatalf("%s: Lookup %v yielded %v", step, row, u)
				}
				hits++
				return true
			})
			if got := r.Contains(row); got != live[i] || hits != map[bool]int{true: 1}[live[i]] {
				t.Fatalf("%s: row %d: Contains %v, Lookup %d hits; want live=%v", step, i, got, hits, live[i])
			}
		}
		if r.Len() != len(live) {
			t.Fatalf("%s: Len %d, want %d", step, r.Len(), len(live))
		}
	}
	for i := int64(0); i < 80; i++ {
		r.Insert(it(i, -i))
		live[i] = true
	}
	check("fill")
	r.Delete(it(5, -5))
	delete(live, 5)
	check("delete")
	r.Insert(it(5, -5))
	live[5] = true
	check("re-insert")
	for i := int64(10); i < 60; i++ {
		r.Delete(it(i, -i))
		delete(live, i)
	}
	if r.rows.slots == 81 {
		t.Fatal("the deletes did not compact")
	}
	check("compact")
	r.Insert(it(30, -30))
	live[30] = true
	check("insert after compact")
	r.Clear()
	clear(live)
	check("clear")
	for i := int64(40); i < 100; i++ {
		r.Insert(it(i, -i))
		live[i] = true
	}
	check("refill")
}

// TestInsertReportsNewRows: Insert's result is §10's uniondiff — the rows
// it reports new are exactly the batch minus the relation and minus the
// batch's own repeats.
func TestInsertReportsNewRows(t *testing.T) {
	r := newRel(t, 1, IndexNever)
	r.Insert(it(1))
	r.Insert(it(2))
	var delta []int64
	for _, tp := range []term.Tuple{it(2), it(3), it(3), it(4)} {
		if r.Insert(tp) {
			delta = append(delta, tp[0].Int())
		}
	}
	if !slices.Equal(delta, []int64{3, 4}) {
		t.Fatalf("new rows = %v, want [3 4]", delta)
	}
	if r.Len() != 4 {
		t.Errorf("Len after the batch = %d, want 4", r.Len())
	}
	if r.Insert(it(1)) || r.Insert(it(4)) {
		t.Error("a second insert of a stored row reported it new")
	}
}

func TestModifyByKey(t *testing.T) {
	// matrix(Row, Col, Val) updated by key (Row, Col), like SQL UPDATE.
	r := newRel(t, 3, IndexNever)
	r.Insert(it(1, 1, 10))
	r.Insert(it(1, 2, 20))
	r.Insert(it(2, 1, 30))
	r.ModifyByKey(0b011, []term.Tuple{it(1, 1, 99), it(3, 3, 7)})
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	if !r.Contains(it(1, 1, 99)) || r.Contains(it(1, 1, 10)) {
		t.Error("ModifyByKey should replace matching-key tuple")
	}
	if !r.Contains(it(3, 3, 7)) {
		t.Error("ModifyByKey should insert tuple with fresh key")
	}
	if !r.Contains(it(1, 2, 20)) || !r.Contains(it(2, 1, 30)) {
		t.Error("ModifyByKey should leave other tuples alone")
	}
}

func TestAllAndSorted(t *testing.T) {
	r := newRel(t, 1, IndexNever)
	for _, v := range []int64{5, 1, 3} {
		r.Insert(it(v))
	}
	all := r.All()
	if len(all) != 3 {
		t.Errorf("All returned %d tuples", len(all))
	}
	sorted := Sorted(r)
	for i, want := range []int64{1, 3, 5} {
		if sorted[i][0].Int() != want {
			t.Errorf("Sorted[%d] = %v, want %d", i, sorted[i], want)
		}
	}
}

func TestQuickSetSemantics(t *testing.T) {
	// Property: a relation behaves as a set under any insert/delete
	// sequence, agreeing with a reference map implementation.
	type op struct {
		Insert bool
		A, B   int8
	}
	f := func(ops []op) bool {
		r := NewRelation(term.NewString("q"), 2, IndexAdaptive, nil)
		ref := map[[2]int8]bool{}
		for _, o := range ops {
			tp := it(int64(o.A), int64(o.B))
			k := [2]int8{o.A, o.B}
			if o.Insert {
				added := r.Insert(tp)
				if added == ref[k] {
					return false
				}
				ref[k] = true
			} else {
				removed := r.Delete(tp)
				if removed != ref[k] {
					return false
				}
				delete(ref, k)
			}
		}
		if r.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if !r.Contains(it(int64(k[0]), int64(k[1]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIndexedLookupMatchesScan(t *testing.T) {
	// Property: for random data, an indexed lookup returns exactly the
	// tuples a filtered scan returns.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		indexed := NewRelation(term.NewString("a"), 2, IndexAlways, nil)
		plain := NewRelation(term.NewString("b"), 2, IndexNever, nil)
		for i := 0; i < 200; i++ {
			tp := it(int64(rng.Intn(10)), int64(rng.Intn(50)))
			indexed.Insert(tp)
			plain.Insert(tp.Clone())
		}
		for key := int64(0); key < 10; key++ {
			gather := func(r *Relation) map[int64]bool {
				out := map[int64]bool{}
				r.Lookup(0b01, it(key, 0), func(tp term.Tuple) bool {
					out[tp[1].Int()] = true
					return true
				})
				return out
			}
			a, b := gather(indexed), gather(plain)
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDistinctEstExact checks the per-column distinct estimates while the
// exact multiset is in range: inserts, duplicate values, deletes, and Clear
// must all be reflected precisely.
func TestDistinctEstExact(t *testing.T) {
	rel := NewRelation(term.NewString("d"), 2, IndexNever, &Stats{})
	for i := 0; i < 100; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i % 5)), term.NewInt(int64(i))})
	}
	if got := rel.DistinctEst(0); got != 5 {
		t.Fatalf("DistinctEst(0) = %d, want 5", got)
	}
	if got := rel.DistinctEst(1); got != 100 {
		t.Fatalf("DistinctEst(1) = %d, want 100", got)
	}
	// Deleting one row of a duplicated value keeps the value counted;
	// deleting all rows with value 4 drops it.
	rel.Delete(term.Tuple{term.NewInt(0), term.NewInt(0)})
	if got := rel.DistinctEst(0); got != 5 {
		t.Fatalf("after one delete DistinctEst(0) = %d, want 5", got)
	}
	for i := 4; i < 100; i += 5 {
		rel.Delete(term.Tuple{term.NewInt(4), term.NewInt(int64(i))})
	}
	if got := rel.DistinctEst(0); got != 4 {
		t.Fatalf("after deleting value 4 DistinctEst(0) = %d, want 4", got)
	}
	rel.Clear()
	if got := rel.DistinctEst(0); got != 0 {
		t.Fatalf("after Clear DistinctEst(0) = %d, want 0", got)
	}
	if got := rel.DistinctEst(7); got != 0 {
		t.Fatalf("out-of-range column estimated %d, want 0", got)
	}
}

// TestDistinctEstSketch pushes a column past the exact limit and checks the
// linear-counting fallback stays within a loose relative error.
func TestDistinctEstSketch(t *testing.T) {
	rel := NewRelation(term.NewString("d"), 1, IndexNever, &Stats{})
	const n = 20000
	for i := 0; i < n; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i))})
	}
	got := rel.DistinctEst(0)
	if got < n*8/10 || got > n*12/10 {
		t.Fatalf("sketch estimate %d for %d distinct values (want within 20%%)", got, n)
	}
}
