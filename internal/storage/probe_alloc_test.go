package storage

import (
	"fmt"
	"testing"

	"gluenail/internal/term"
)

// TestLookupProbeAllocs pins the probe path at zero allocations per lookup:
// both the whole-tuple hash-table probe and a built column-mask index
// answer probes without materializing keys.
func TestLookupProbeAllocs(t *testing.T) {
	r := newRel(t, 2, IndexAdaptive)
	for i := 0; i < 500; i++ {
		r.Insert(term.Tuple{
			term.Intern(fmt.Sprintf("n%03d", i%100)),
			term.NewInt(int64(i)),
		})
	}
	warmIndex(r, 1, term.Tuple{term.Intern("n000"), {}})
	if !r.HasIndex(1) {
		t.Fatal("col-0 index was not built")
	}

	var hits int
	yield := func(term.Tuple) bool { hits++; return true }
	fullKey := term.Tuple{term.Intern("n042"), term.NewInt(42)}
	colKey := term.Tuple{term.Intern("n042"), {}}

	if got := testing.AllocsPerRun(50, func() {
		r.Lookup(fullColsMask(r.Arity()), fullKey, yield)
	}); got != 0 {
		t.Errorf("whole-tuple Lookup: %.1f allocs/probe, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		r.Lookup(1, colKey, yield)
	}); got != 0 {
		t.Errorf("indexed column Lookup: %.1f allocs/probe, want 0", got)
	}
	if hits == 0 {
		t.Fatal("probes never matched; nothing was exercised")
	}
}

// TestInsertAllocsAmortized pins Insert at O(1) amortized allocations per
// tuple: the open-addressing table adds no per-entry object, so
// steady-state inserts only pay the amortized growth of the row chunks
// and the table.
func TestInsertAllocsAmortized(t *testing.T) {
	r := newRel(t, 2, IndexNever)
	tuples := make([]term.Tuple, 4096)
	for i := range tuples {
		tuples[i] = term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i % 7))}
	}
	next := 0
	got := testing.AllocsPerRun(len(tuples)-1, func() {
		r.Insert(tuples[next])
		next++
	})
	// Amortized slice/table growth stays well under one allocation per
	// insert; the old map[uint64][]int buckets paid ≥ 1 every time.
	if got > 0.5 {
		t.Errorf("Insert: %.3f allocs/tuple amortized, want ≤ 0.5", got)
	}
}

// TestDeleteAllocs pins Delete at zero allocations on mem and layered
// relations with a built index on a low-cardinality column: a deletion
// only stamps its slot dead and removes it from the hash table; no index
// is edited.
func TestDeleteAllocs(t *testing.T) {
	layered := NewLayeredStore(IndexAdaptive)
	layered.log = make([]byte, 0, 1<<20) // the simulated WAL's growth is not Delete's
	for name, st := range map[string]Store{"mem": NewMemStore(IndexAdaptive), "layered": layered} {
		t.Run(name, func(t *testing.T) {
			rel := st.Ensure(term.Intern("d"), 2)
			rows := make([]term.Tuple, 1000)
			for i := range rows {
				rows[i] = term.Tuple{term.NewInt(int64(i % 4)), term.NewInt(int64(i))}
				rel.Insert(rows[i])
			}
			warmIndex(rel, 1, term.Tuple{term.NewInt(0), {}})
			next := 0
			// 201 deletions leave the tombstones below the compaction
			// threshold (more dead than live).
			if got := testing.AllocsPerRun(200, func() {
				if !rel.Delete(rows[next]) {
					t.Fatalf("Delete(%v) found nothing", rows[next])
				}
				next++
			}); got != 0 {
				t.Errorf("Delete: %.1f allocs/call, want 0", got)
			}
		})
	}
}
