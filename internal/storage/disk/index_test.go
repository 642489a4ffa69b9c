package disk

import (
	"io"
	"slices"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// probeOrder returns the second column of rel's rows with key 1 in column
// 0, once through a partial-mask Lookup and once through a Scan.
func probeOrder(rel storage.Rel) (probed, scanned []int64) {
	rel.Lookup(0b01, pair(1, 0), func(u term.Tuple) bool { probed = append(probed, u[1].Int()); return true })
	rel.Scan(func(u term.Tuple) bool {
		if u[0].Int() == 1 {
			scanned = append(scanned, u[1].Int())
		}
		return true
	})
	return probed, scanned
}

// TestDiskIndexProbeOrderSurvivesDelete is the disk twin of the storage
// package's TestIndexProbeOrderSurvivesDelete: a partial-mask probe through
// the index over the run image enumerates matches in scan order, also
// after a delete from the middle of the key's postings.
func TestDiskIndexProbeOrderSurvivesDelete(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FlushRows: 5, Policy: storage.IndexAlways})
	defer st.Close()
	rel := st.Ensure(term.Intern("r"), 2)
	for i := 0; i < 5; i++ {
		rel.Insert(pair(1, i))
	}
	r := rel.(*Rel)
	if r.mem.Len() != 0 || r.diskLive != 5 {
		t.Fatalf("setup: %d rows in runs, %d in the memtable; want all 5 flushed", r.diskLive, r.mem.Len())
	}
	rel.Lookup(0b01, pair(1, 0), func(term.Tuple) bool { return true })
	if st.Stats().IndexBuilds == 0 {
		t.Fatal("setup: run index missing")
	}
	rel.Delete(pair(1, 1))
	probed, scanned := probeOrder(rel)
	if !slices.Equal(probed, scanned) || !slices.Equal(scanned, []int64{0, 2, 3, 4}) {
		t.Fatalf("run-index probe yields %v, scan yields %v, want [0 2 3 4] from both", probed, scanned)
	}
}

// TestIndexProbeOrderSurvivesDeleteEverywhere: on every backend, and
// through snapshots of both engines, a lookup through a built index
// enumerates matches in the order a scan does, also after a delete from
// the middle of the key's postings. Rows reach the disk engine's memtable,
// its runs (two of them, so the run image spans runs) and a spill store's
// runs.
func TestIndexProbeOrderSurvivesDeleteEverywhere(t *testing.T) {
	closeView := func(v storage.SnapshotStore) {
		if c, ok := v.(io.Closer); ok {
			c.Close()
		}
	}
	open := map[string]func(t *testing.T) storage.Store{
		"mem":     func(*testing.T) storage.Store { return storage.NewMemStore(storage.IndexAlways) },
		"layered": func(*testing.T) storage.Store { return storage.NewLayeredStore(storage.IndexAlways) },
		"disk-memtable": func(t *testing.T) storage.Store {
			return openTest(t, t.TempDir(), Options{FlushRows: 1000, Policy: storage.IndexAlways, NoCompactor: true})
		},
		"disk-runs": func(t *testing.T) storage.Store {
			return openTest(t, t.TempDir(), Options{FlushRows: 5, Policy: storage.IndexAlways, NoCompactor: true})
		},
		"spill": func(t *testing.T) storage.Store {
			st, err := NewScratch(t.TempDir(), 5, storage.IndexAlways, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			if c, ok := st.(io.Closer); ok {
				defer c.Close()
			}
			rel := st.Ensure(term.Intern("r"), 2)
			for k := 1; k <= 2; k++ {
				for i := 0; i < 5; i++ {
					rel.Insert(pair(k, i))
				}
			}
			if r, ok := rel.(*Rel); ok {
				want := 10 // rows in runs
				if name == "disk-memtable" {
					want = 0
				}
				if r.diskLive != want || r.mem.Len() != 10-want {
					t.Fatalf("setup: %d rows in runs, %d in the memtable; want %d in runs", r.diskLive, r.mem.Len(), want)
				}
			}
			be, _ := st.(storage.Backend)
			var before storage.Rel
			if be != nil {
				be.AdvanceCSN()
				snap, err := be.SnapshotView()
				if err != nil {
					t.Fatal(err)
				}
				defer closeView(snap)
				before, _ = snap.Get(term.Intern("r"), 2)
			}
			probeOrder(rel) // builds the index
			if st.Stats().IndexBuilds == 0 {
				t.Fatal("setup: no index was built")
			}
			if before != nil {
				probeOrder(before)
			}
			rel.Delete(pair(1, 1))
			check := func(what string, rel storage.Rel, want []int64) {
				t.Helper()
				probed, scanned := probeOrder(rel)
				if !slices.Equal(probed, scanned) || !slices.Equal(scanned, want) {
					t.Errorf("%s: index probe yields %v, scan yields %v, want %v from both", what, probed, scanned, want)
				}
			}
			check("live", rel, []int64{0, 2, 3, 4})
			if be == nil {
				return
			}
			check("snapshot before the delete", before, []int64{0, 1, 2, 3, 4})
			be.AdvanceCSN()
			snap, err := be.SnapshotView()
			if err != nil {
				t.Fatal(err)
			}
			defer closeView(snap)
			after, _ := snap.Get(term.Intern("r"), 2)
			check("snapshot after the delete", after, []int64{0, 2, 3, 4})
			if snap.Stats().RowsProbed == 0 {
				t.Error("the snapshot answered without probing an index")
			}
		})
	}
}
