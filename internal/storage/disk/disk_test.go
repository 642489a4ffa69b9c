package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// Unit tests for the disk engine internals: flush-ordered runs,
// tombstones, manifest reopen, orphan sweep, compaction, snapshot
// pinning, and the spill-directory hygiene helpers.

func openTest(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	if opts.FlushRows == 0 {
		opts.FlushRows = 4
	}
	opts.NoCompactor = true
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func pair(a, b int) term.Tuple {
	return term.Tuple{term.NewInt(int64(a)), term.NewInt(int64(b))}
}

func allRows(r storage.Rel) [][2]int64 {
	var out [][2]int64
	r.Scan(func(t term.Tuple) bool {
		out = append(out, [2]int64{t[0].Int(), t[1].Int()})
		return true
	})
	return out
}

// TestDiskFlushScanOrder checks that enumeration order across flushed
// runs and the live memtable is insertion order — the invariant every
// byte-identical guarantee in the system rests on.
func TestDiskFlushScanOrder(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 10; i++ {
		if !rel.Insert(pair(i, i+1)) {
			t.Fatalf("insert %d rejected", i)
		}
	}
	r := rel.(*Rel)
	if n := len(*r.runs.Load()); n < 2 {
		t.Fatalf("expected multiple runs at FlushRows=4, got %d", n)
	}
	if rel.Len() != 10 {
		t.Fatalf("Len = %d, want 10", rel.Len())
	}
	rows := allRows(rel)
	for i, row := range rows {
		if row != [2]int64{int64(i), int64(i + 1)} {
			t.Fatalf("row %d = %v: scan is not insertion-ordered", i, row)
		}
	}
	// Dedup must see through runs: re-inserting a flushed row is a no-op.
	if rel.Insert(pair(0, 1)) {
		t.Fatal("re-insert of run-resident row was accepted")
	}
	if !rel.Contains(pair(7, 8)) || rel.Contains(pair(7, 9)) {
		t.Fatal("Contains wrong across runs/memtable")
	}
	// Full-mask and single-column lookups over run-resident rows.
	var hits int
	rel.Lookup(3, pair(2, 3), func(term.Tuple) bool { hits++; return true })
	if hits != 1 {
		t.Fatalf("full-mask lookup: %d hits, want 1", hits)
	}
	// Repeated col-0 lookups: the first scans the runs, accruing adaptive
	// credit; the second builds the run index, which the third probes.
	for i := 0; i < 3; i++ {
		hits = 0
		rel.Lookup(1, term.Tuple{term.NewInt(5), {}}, func(t term.Tuple) bool {
			if t[1].Int() != 6 {
				return false
			}
			hits++
			return true
		})
		if hits != 1 {
			t.Fatalf("col-0 lookup %d: %d hits, want 1", i, hits)
		}
	}
}

// TestDiskDeleteTombstones deletes both a memtable-resident and a
// run-resident row and checks every read path agrees.
func TestDiskDeleteTombstones(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 10; i++ {
		rel.Insert(pair(i, i+1))
	}
	if !rel.Delete(pair(1, 2)) { // run-resident (flushed at row 4)
		t.Fatal("delete of run-resident row failed")
	}
	if !rel.Delete(pair(9, 10)) { // memtable-resident
		t.Fatal("delete of memtable row failed")
	}
	if rel.Delete(pair(1, 2)) {
		t.Fatal("double delete succeeded")
	}
	if rel.Len() != 8 {
		t.Fatalf("Len = %d after deletes, want 8", rel.Len())
	}
	if rel.Contains(pair(1, 2)) || rel.Contains(pair(9, 10)) {
		t.Fatal("deleted row still Contains")
	}
	for _, row := range allRows(rel) {
		if row == [2]int64{1, 2} || row == [2]int64{9, 10} {
			t.Fatalf("deleted row %v still scanned", row)
		}
	}
	// A tombstoned run row can be re-inserted; it lands in the memtable
	// and enumerates at its new position (set semantics, new insertion).
	if !rel.Insert(pair(1, 2)) {
		t.Fatal("re-insert of deleted row rejected")
	}
	rows := allRows(rel)
	if last := rows[len(rows)-1]; last != [2]int64{1, 2} {
		t.Fatalf("re-inserted row enumerates at %v, want last", last)
	}
}

// TestDiskReopenFromManifest round-trips contents, order, and distinct
// estimates through FlushBase + Close + Open.
func TestDiskReopenFromManifest(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 10; i++ {
		rel.Insert(pair(i%3, i))
	}
	rel.Delete(pair(0, 0))
	want := allRows(rel)
	wantD0, wantD1 := rel.DistinctEst(0), rel.DistinctEst(1)
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	rel2, ok := st2.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation missing after reopen")
	}
	got := allRows(rel2)
	if len(got) != len(want) {
		t.Fatalf("reopen: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopen row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if d0, d1 := rel2.DistinctEst(0), rel2.DistinctEst(1); d0 != wantD0 || d1 != wantD1 {
		t.Fatalf("distinct estimates (%d,%d) after reopen, want (%d,%d)", d0, d1, wantD0, wantD1)
	}
}

// TestDiskOrphanSweep plants stray run and temp files (as a crash between
// run creation and manifest install would) and checks reopen removes them
// without touching manifest-listed runs.
func TestDiskOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 6; i++ {
		rel.Insert(pair(i, i+1))
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	want := allRows(rel)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	orphanRun := filepath.Join(dir, runName(99999999))
	orphanTmp := filepath.Join(dir, "run-00000042.grn.tmp")
	for _, p := range []string{orphanRun, orphanTmp} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	for _, p := range []string{orphanRun, orphanTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived reopen", filepath.Base(p))
		}
	}
	rel2, _ := st2.Get(term.Intern("edge"), 2)
	got := allRows(rel2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("content changed by sweep: %v vs %v", got, want)
	}
}

// TestDiskCompactOne merges a relation's runs directly and checks the
// merge is content-identical, collapses to one run, and drops committed
// tombstones.
func TestDiskCompactOne(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 12; i++ {
		rel.Insert(pair(i, i+1))
	}
	rel.Delete(pair(2, 3)) // run-resident tombstone
	st.AdvanceCSN()        // commit it: compaction may now drop the row
	want := allRows(rel)

	r := rel.(*Rel)
	before := len(*r.runs.Load())
	if before < 2 {
		t.Fatalf("need >= 2 runs to compact, have %d", before)
	}
	if !st.compactOne(r, 0, before) {
		t.Fatal("compactOne reported no progress")
	}
	runs := *r.runs.Load()
	if len(runs) != 1 {
		t.Fatalf("%d runs after compaction, want 1", len(runs))
	}
	if n := runs[0].ntombs(); n != 0 {
		t.Fatalf("merged run carries %d tombstones, want 0 (all committed)", n)
	}
	got := allRows(rel)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("compaction changed content: %v vs %v", got, want)
	}
	// A second cycle has a single run and must decline.
	if st.compactOne(r, 0, len(*r.runs.Load())) {
		t.Fatal("compactOne claimed progress on a single run")
	}
}

// TestDiskSnapshotPinsRuns captures a view, then deletes and compacts
// underneath it: the view must keep reading the replaced (unlinked) run
// files, and the live store must see the new state.
func TestDiskSnapshotPinsRuns(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 12; i++ {
		rel.Insert(pair(i, i+1))
	}
	st.AdvanceCSN()
	view, err := st.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	snapRel, ok := view.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation missing from snapshot")
	}

	rel.Delete(pair(4, 5))
	st.AdvanceCSN()
	if !st.compactOne(rel.(*Rel), 0, len(*rel.(*Rel).runs.Load())) {
		t.Fatal("compactOne reported no progress")
	}

	snapRows := allRows(snapRel)
	if len(snapRows) != 12 {
		t.Fatalf("snapshot sees %d rows after compaction, want 12", len(snapRows))
	}
	for i, row := range snapRows {
		if row != [2]int64{int64(i), int64(i + 1)} {
			t.Fatalf("snapshot row %d = %v", i, row)
		}
	}
	if !snapRel.Contains(pair(4, 5)) {
		t.Fatal("snapshot lost the row deleted after capture")
	}
	if live := allRows(rel); len(live) != 11 {
		t.Fatalf("live store sees %d rows, want 11", len(live))
	}
	if err := view.(*snapStore).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepStaleSpillDirs checks the crash-hygiene sweep removes spill
// directories whose owning process is gone and keeps live ones.
func TestSweepStaleSpillDirs(t *testing.T) {
	parent := t.TempDir()
	dead := filepath.Join(parent, "spill-999999999-1")
	live := filepath.Join(parent, fmt.Sprintf("spill-%d-7", os.Getpid()))
	other := filepath.Join(parent, "not-a-spill-dir")
	for _, d := range []string{dead, live, other} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dead, runName(1)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	SweepStaleSpills(parent)
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Error("dead-pid spill dir survived the sweep")
	}
	for _, d := range []string{live, other} {
		if _, err := os.Stat(d); err != nil {
			t.Errorf("%s removed by sweep: %v", filepath.Base(d), err)
		}
	}
}

// TestCheckDirOverlapUnit exercises the data-dir/spill-dir collision
// guard directly.
func TestCheckDirOverlapUnit(t *testing.T) {
	base := t.TempDir()
	data := filepath.Join(base, "data")
	spill := filepath.Join(base, "spill")
	if err := CheckDirOverlap(data, spill); err != nil {
		t.Errorf("disjoint dirs rejected: %v", err)
	}
	if err := CheckDirOverlap("", spill); err != nil {
		t.Errorf("empty data dir rejected: %v", err)
	}
	for _, tc := range [][2]string{
		{data, data},
		{data, filepath.Join(data, "spill")},
		{filepath.Join(spill, "data"), spill},
	} {
		err := CheckDirOverlap(tc[0], tc[1])
		if err == nil {
			t.Errorf("CheckDirOverlap(%q, %q) allowed overlap", tc[0], tc[1])
		} else if !strings.Contains(err.Error(), "directory") {
			t.Errorf("overlap error not actionable: %v", err)
		}
	}
}

// TestScratchReleaseRetiresRuns checks that a spill store's frame
// relation stays out of its catalog and that releasing it removes the run
// files it spilled.
func TestScratchReleaseRetiresRuns(t *testing.T) {
	st, err := NewScratch(t.TempDir(), 4, storage.IndexAdaptive, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs := func() int {
		files, err := filepath.Glob(filepath.Join(st.Dir(), "run-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	r := st.New(2)
	for i := 0; i < 20; i++ {
		r.Insert(strRow(i))
	}
	if r.Len() != 20 || runs() == 0 || len(st.Names()) != 0 {
		t.Fatalf("scratch relation: %d rows, %d run files, catalog %v", r.Len(), runs(), st.Names())
	}
	st.Release(r)
	if n, s := runs(), st.Stats(); n != 0 || s.RelsCreated != 1 || s.RelsDropped != 1 {
		t.Errorf("after Release: %d run files, created=%d released=%d", n, s.RelsCreated, s.RelsDropped)
	}
}
