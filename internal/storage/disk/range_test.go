package disk

import (
	"fmt"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// TestLookupRangeEveryEngine checks the slot-range read (storage.Ranger)
// of every engine a procedure frame's relations live in: the main-memory
// relation, the layered baseline's, and the spill store's disk relation,
// whose older slots are in runs and newer ones in its memtable. On a
// relation that only grew, every range yields, for a scan and for each
// lookup mask, exactly the rows of slots [lo, hi) that the lookup of the
// whole relation yields, in the same order; and probing a one-row range
// at the end of a column whose rows all share one key examines one row.
func TestLookupRangeEveryEngine(t *testing.T) {
	const n = 300
	spill, err := NewScratch(t.TempDir(), 64, storage.IndexAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	for _, eng := range []struct {
		name  string
		store storage.Store
	}{
		{"mem", storage.NewMemStore(storage.IndexAlways)},
		{"layered", storage.NewLayeredStore(storage.IndexAlways)},
		{"spill", spill},
	} {
		rel := eng.store.Ensure(term.NewString("r"), 2)
		rng, ok := rel.(storage.Ranger)
		if !ok {
			t.Fatalf("%s: %T is not a storage.Ranger", eng.name, rel)
		}
		for i := range n {
			rel.Insert(term.Tuple{term.NewInt(7), term.NewInt(int64(i % 10))})
			rel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i % 10))})
			if i == n/2 { // an index built by a range read serves every later read
				rng.LookupRange(0, 5, 2, term.Tuple{{}, term.NewInt(3)}, func(term.Tuple) bool { return true })
			}
		}
		all := rel.All()
		read := func(lo, hi int, mask uint32, key term.Tuple) string {
			var out []term.Tuple
			rng.LookupRange(lo, hi, mask, key, func(u term.Tuple) bool {
				out = append(out, u)
				return true
			})
			return fmt.Sprint(out)
		}
		for _, r := range [][2]int{{0, len(all)}, {0, 0}, {5, 5}, {len(all) - 1, len(all)}, {100, 250}, {128, 256}, {255, 257}, {len(all) - 40, len(all)}} {
			for _, q := range []struct {
				mask uint32
				key  term.Tuple
			}{
				{0, nil},
				{1, term.Tuple{term.NewInt(7), {}}},
				{2, term.Tuple{{}, term.NewInt(3)}},
				{3, all[r[0]%len(all)]},
			} {
				var want []term.Tuple
				for _, u := range all[r[0]:r[1]] {
					if q.mask == 0 || u.EqualCols(q.key, q.mask) {
						want = append(want, u)
					}
				}
				if got := read(r[0], r[1], q.mask, q.key); got != fmt.Sprint(want) {
					t.Errorf("%s: slots [%d, %d) mask %b: got %s, want %v", eng.name, r[0], r[1], q.mask, got, want)
				}
			}
		}
		// Every row of s has key 7: its postings list every slot.
		s := eng.store.Ensure(term.NewString("s"), 2)
		for i := range n {
			s.Insert(term.Tuple{term.NewInt(7), term.NewInt(int64(i))})
		}
		key := term.Tuple{term.NewInt(7), {}}
		s.Lookup(1, key, func(term.Tuple) bool { return true }) // builds the index
		st := eng.store.Stats()
		for _, at := range []int{200, n - 2} { // spill: a run's slot, a memtable's
			before := st.RowsScanned + st.RowsProbed
			s.(storage.Ranger).LookupRange(at, at+1, 1, key, func(u term.Tuple) bool {
				if u[1].Int() != int64(at) {
					t.Errorf("%s: slot %d holds %v", eng.name, at, u)
				}
				return true
			})
			if examined := st.RowsScanned + st.RowsProbed - before; examined != 1 {
				t.Errorf("%s: probing slot %d examined %d rows, want 1", eng.name, at, examined)
			}
		}
	}
}
