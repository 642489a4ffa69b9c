package disk

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gluenail/internal/hashtab"
	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// Tests of the point-operation path: what a full-mask probe costs (cold
// and warm), what it leaves in the cache, how it is accounted, and that
// tombstone stamps stay correct under the compactor and snapshot readers.

// oneRun builds a store whose relation holds rows (i, i+1), i < n, in a
// single flushed run, with a cacheBlocks-block cache.
func oneRun(t *testing.T, n, cacheBlocks int) (*Store, *Rel) {
	t.Helper()
	st := openTest(t, t.TempDir(), Options{FlushRows: n + 1, CacheBlocks: cacheBlocks})
	t.Cleanup(func() { st.Close() })
	r := st.Ensure(term.Intern("edge"), 2).(*Rel)
	for i := 0; i < n; i++ {
		r.Insert(pair(i, i+1))
	}
	if err := r.flush(false); err != nil {
		t.Fatal(err)
	}
	return st, r
}

func blocksRead(st *Store) int64 { return atomic.LoadInt64(&st.stats.BlocksRead) }
func cacheHits(st *Store) int64  { return atomic.LoadInt64(&st.stats.CacheHits) }

// TestColdProbeAllocs gates the cost of a first-touch point probe: it
// materialises the one row it compares, not the block (256 tuples and
// their slice, before single-row decode), and recycles the ghost entry
// and frame buffer of the probe it displaces.
func TestColdProbeAllocs(t *testing.T) {
	const blocks, capacity = 96, 4
	_, r := oneRun(t, blocks*rowsPerBlock, capacity)
	keys := make([]term.Tuple, blocks)
	for b := range keys {
		keys[b] = pair(b*rowsPerBlock+7, b*rowsPerBlock+8)
	}
	// Cycling through far more blocks than the ghost list holds makes
	// every probe a first touch.
	b := 0
	next := func() term.Tuple { b = (b + 1) % blocks; return keys[b] }
	for i := 0; i < 2*capacity; i++ {
		r.Contains(next()) // fill the ghost list so entries recycle
	}
	before := blocksRead(r.st)
	if n := testing.AllocsPerRun(200, func() {
		if !r.Contains(next()) {
			t.Fatal("stored row not found")
		}
	}); n > 3 {
		t.Errorf("cold Contains: %.1f allocs, want <= 3", n)
	}
	if got := blocksRead(r.st) - before; got != 201 {
		t.Fatalf("%d frame reads for 201 probes: the probes were not all cold", got)
	}
	full := r.fullMask()
	if n := testing.AllocsPerRun(200, func() {
		hits := 0
		r.Lookup(full, next(), func(term.Tuple) bool { hits++; return true })
		if hits != 1 {
			t.Fatalf("cold Lookup yielded %d rows", hits)
		}
	}); n > 3 {
		t.Errorf("cold full-mask Lookup: %.1f allocs, want <= 3", n)
	}
	// Finding relations builds no key, on the store and on a snapshot.
	frame := term.Atom("$frame", term.NewInt(7), term.NewString("local"))
	r.st.Ensure(frame, 1)
	catalogAllocs(t, "disk store", r.st, frame)
	view, err := r.st.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = view.(*snapStore).Close() }()
	catalogAllocs(t, "disk snapshot", view, frame)
}

// TestDeleteCostIndependentOfTombstones gates Delete of a run row at O(1)
// in the tombstones the run already carries (the copy-on-write map it
// replaces copied all of them per deleted row).
func TestDeleteCostIndependentOfTombstones(t *testing.T) {
	const n, batch = 16384, 2000
	// withTombs returns a run already carrying pre tombstones, on rows
	// 0..pre-1; del deletes run row i.
	withTombs := func(pre int) *Rel {
		_, r := oneRun(t, n, 64)
		for i := 0; i < pre; i++ {
			r.Delete(pair(i, i+1))
		}
		if got := (*r.runs.Load())[0].ntombs(); got != pre {
			t.Fatalf("%d tombstones after %d deletes", got, pre)
		}
		return r
	}
	del := func(r *Rel, i int) {
		if !r.Delete(pair(i, i+1)) {
			t.Fatalf("row %d not deleted", i)
		}
	}
	r, i := withTombs(10000), 10000
	if allocs := testing.AllocsPerRun(batch-1, func() { del(r, i); i++ }); allocs > 2 {
		t.Errorf("Delete with 10000 tombstones: %.2f allocs, want <= 2", allocs)
	}
	// deleteBatch returns the wall time of deleting batch run rows from a
	// run already carrying pre tombstones. A collection first leaves the
	// garbage of the setup deletes out of the timed loop.
	deleteBatch := func(pre int) time.Duration {
		r := withTombs(pre)
		runtime.GC()
		start := time.Now()
		for i := pre; i < pre+batch; i++ {
			del(r, i)
		}
		return time.Since(start)
	}
	// Timing on a shared machine: interference only adds time, so the
	// quietest of a few trials is the estimate. The trials alternate, so
	// a spell of load falls on both sides rather than on one.
	few, many := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 7; trial++ {
		few = min(few, deleteBatch(10))
		many = min(many, deleteBatch(10000))
	}
	if many > 2*few {
		t.Errorf("%d deletes took %v with 10000 tombstones, %v with 10: not O(1)", batch, many, few)
	}
}

// TestSecondTouchAdmission pins the cache's admission rule: a sweep of
// one-off probes over more blocks than the cache holds leaves a hot block
// resident, and a same-block batch reads its block once, decodes it once,
// and runs from the cache after that.
func TestSecondTouchAdmission(t *testing.T) {
	const blocks, capacity = 64, 8
	st, r := oneRun(t, blocks*rowsPerBlock, capacity)
	at := func(b, i int) term.Tuple { return pair(b*rowsPerBlock+i, b*rowsPerBlock+i+1) }

	r.Contains(at(0, 1))
	r.Contains(at(0, 2)) // second touch admits block 0
	for b := 1; b < blocks; b++ {
		r.Contains(at(b, 0))
	}
	reads, hits := blocksRead(st), cacheHits(st)
	if !r.Contains(at(0, 3)) {
		t.Fatal("stored row not found")
	}
	if blocksRead(st) != reads || cacheHits(st) != hits+1 {
		t.Fatalf("after a %d-block cold sweep the hot block cost %d reads and %d hits; want 0 and 1",
			blocks-1, blocksRead(st)-reads, cacheHits(st)-hits)
	}

	// A 64-key semi-join into one cold block (the oldest of the sweep,
	// long gone from the ghost list).
	reads, hits = blocksRead(st), cacheHits(st)
	for i := 0; i < 64; i++ {
		if !r.Contains(at(1, i)) {
			t.Fatalf("row %d of the batch not found", i)
		}
	}
	if got := blocksRead(st) - reads; got != 1 {
		t.Errorf("same-block batch read its block %d times, want 1", got)
	}
	if got := cacheHits(st) - hits; got != 62 {
		t.Errorf("same-block batch got %d cache hits, want 62 (first touch, admission, then hits)", got)
	}
}

// TestBloomAccountingExact runs a fixed probe sequence through every
// point operation and checks BloomChecks/BloomSkips against the filters
// consulted directly: one check per run examined up to the run holding
// the row, one skip per filter that said no — published once per probe,
// meaning unchanged.
func TestBloomAccountingExact(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FlushRows: 32})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	r := rel.(*Rel)
	for i := 0; i < 32*6; i++ {
		rel.Insert(pair(i, i+1))
	}
	runs := *r.runs.Load()
	if len(runs) != 6 || r.mem.Len() != 0 {
		t.Fatalf("%d runs, %d memtable rows; want 6 and 0", len(runs), r.mem.Len())
	}
	// The set-up inserts probed too: count from here.
	wantChecks := atomic.LoadInt64(&st.stats.BloomChecks)
	wantSkips := atomic.LoadInt64(&st.stats.BloomSkips)
	expect := func(key term.Tuple, inRun int) {
		h := key.Hash()
		for i, rn := range runs {
			wantChecks++
			if !rn.bloom.mayContain(h) {
				wantSkips++
			}
			if i == inRun {
				return
			}
		}
	}
	full := r.fullMask()
	probes := []struct {
		key   term.Tuple
		inRun int // -1: absent
	}{{pair(3, 4), 0}, {pair(100, 101), 3}, {pair(191, 192), 5}, {pair(5000, 1), -1}}
	for _, p := range probes {
		rel.Contains(p.key)
		expect(p.key, p.inRun)
		rel.Lookup(full, p.key, func(term.Tuple) bool { return true })
		expect(p.key, p.inRun)
	}
	if rel.Insert(pair(100, 101)) { // dedup probe of a stored row
		t.Fatal("duplicate insert accepted")
	}
	expect(pair(100, 101), 3)
	if !rel.Delete(pair(70, 71)) {
		t.Fatal("run row not deleted")
	}
	expect(pair(70, 71), 2)
	if got := atomic.LoadInt64(&st.stats.BloomChecks); got != wantChecks {
		t.Errorf("BloomChecks = %d, want %d", got, wantChecks)
	}
	if got := atomic.LoadInt64(&st.stats.BloomSkips); got != wantSkips {
		t.Errorf("BloomSkips = %d, want %d", got, wantSkips)
	}
}

// TestReadFaultSweepPointProbe injects a single EIO at every frame read a
// point-probe workload performs. Each must surface as a typed
// ErrDiskFault from the probe that needed the read, leave nothing behind
// in the cache, and let the same workload succeed on retry.
func TestReadFaultSweepPointProbe(t *testing.T) {
	// Three durable one-block runs: the probes first-touch the blocks of
	// the first two, the closing scan reads the third whole.
	const rows = 2*rowsPerBlock + 90
	dir := t.TempDir()
	seed := openTest(t, dir, Options{FlushRows: rowsPerBlock})
	seedRel := seed.Ensure(term.Intern("edge"), 2)
	for i := 0; i < rows; i++ {
		seedRel.Insert(strRow(i))
	}
	if err := seed.FlushBase(); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	workload := func(st *Store) error {
		return catchStorage(func() {
			rel, _ := st.Get(term.Intern("edge"), 2)
			full := rel.(*Rel).fullMask()
			for i := 0; i < 2*rowsPerBlock; i += 100 {
				if !rel.Contains(strRow(i)) {
					t.Fatalf("row %d missing", i)
				}
				hits := 0
				rel.Lookup(full, strRow(i+1), func(term.Tuple) bool { hits++; return true })
				if hits != 1 {
					t.Fatalf("Lookup of row %d yielded %d rows", i+1, hits)
				}
			}
			if n := len(rel.All()); n != rows {
				t.Fatalf("scan saw %d rows, want %d", n, rows)
			}
		})
	}
	// open returns the store with every run index resident, so the only
	// reads left are block frames.
	open := func() (*Store, *fsio.FaultFS) {
		ffs := fsio.NewFaultFS(fsio.OS)
		st := openTest(t, dir, Options{FS: ffs})
		rel, _ := st.Get(term.Intern("edge"), 2)
		for _, rn := range *rel.(*Rel).runs.Load() {
			if err := rn.ensureIndex(st.stats); err != nil {
				t.Fatal(err)
			}
		}
		return st, ffs
	}
	st, ffs := open()
	base := ffs.OpsSeen(fsio.OpRead)
	if err := workload(st); err != nil {
		t.Fatal(err)
	}
	reads := ffs.OpsSeen(fsio.OpRead) - base
	st.Close()
	if reads != 3 {
		t.Fatalf("calibration saw %d frame reads, want one per block (3)", reads)
	}
	for after := 0; after < reads; after++ {
		st, ffs := open()
		ffs.Inject(fsio.Fault{Op: fsio.OpRead, Path: "run-", After: after, Count: 1, Err: syscall.EIO})
		err := workload(st)
		if !errors.Is(err, storage.ErrDiskFault) {
			t.Fatalf("read@%d: got %v, want a typed ErrDiskFault", after, err)
		}
		if err := workload(st); err != nil {
			t.Fatalf("read@%d: retry after the fault cleared: %v", after, err)
		}
		st.Close()
	}
}

// hookFS runs onCreate once, just before the first file creation it sees:
// a deterministic way to interleave the writer with a merge in progress
// (the merge has read its inputs and is about to write its output).
type hookFS struct {
	fsio.FS
	onCreate func()
}

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	if fn := h.onCreate; fn != nil && flag&os.O_CREATE != 0 {
		h.onCreate = nil
		fn()
	}
	return h.FS.OpenFile(name, flag, perm)
}

// TestCompactDeclinesOnMidMergeTombstone is the regression test for the
// optimistic install's staleness check. The stamp lands in a tombstone
// page that already exists, so nothing the merge could have remembered by
// identity changes — only the run's tombstone generation does.
func TestCompactDeclinesOnMidMergeTombstone(t *testing.T) {
	hfs := &hookFS{FS: fsio.OS}
	st := openTest(t, t.TempDir(), Options{FlushRows: 8, FS: hfs})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	r := rel.(*Rel)
	for i := 0; i < 24; i++ {
		rel.Insert(pair(i, i+1))
	}
	rel.Delete(pair(9, 10)) // run 1's only page now exists
	st.AdvanceCSN()
	before := *r.runs.Load()
	if len(before) != 3 {
		t.Fatalf("%d runs, want 3", len(before))
	}
	hfs.onCreate = func() {
		if !rel.Delete(pair(10, 11)) { // same run, same page, mid-merge
			t.Error("mid-merge delete found no row")
		}
	}
	if st.compactOne(r, 0, 3) {
		t.Fatal("install went ahead although a tombstone landed mid-merge")
	}
	after := *r.runs.Load()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("run %d replaced by a declined install", i)
		}
	}
	st.AdvanceCSN()
	if !st.compactOne(r, 0, 3) {
		t.Fatal("retry with no interleaved writer made no progress")
	}
	if got := allRows(rel); len(got) != 22 || rel.Contains(pair(9, 10)) || rel.Contains(pair(10, 11)) {
		t.Fatalf("after the retried merge: %d rows, want 22 without (9,10) and (10,11)", len(got))
	}
}

// TestSnapshotsUnderDeletesAndCompaction runs one writer deleting run
// rows and inserting new ones (so runs flush and the background compactor
// merges them) against snapshot sessions pinned at earlier CSNs that keep
// probing, looking up by column 0 and scanning. Every snapshot must stay
// byte-identical to its capture. The writer's own column lookups keep
// replacing the run image the snapshots' lookups read. Run with -race:
// tombstone stamps and the run image are the shared mutable cells.
func TestSnapshotsUnderDeletesAndCompaction(t *testing.T) {
	const readers, rounds, perRound = 4, 24, 48
	st, err := Open(t.TempDir(), Options{FlushRows: 64, CompactAfter: 3, CacheBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	full := rel.(*Rel).fullMask()

	type session struct {
		view storage.SnapshotStore
		want string       // rowsKey at capture
		rows []term.Tuple // contents at capture
		gone []term.Tuple // rows deleted before capture
	}
	sessions := make(chan session, rounds)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range sessions {
				sr, _ := s.view.Get(term.Intern("edge"), 2)
				for pass := 0; pass < 3; pass++ {
					if got := rowsKey(sr); got != s.want {
						t.Errorf("snapshot at CSN %d changed under the writer", s.view.CSN())
					}
					// Column lookups on a sample: one that finds no
					// shared run image scans every pinned run.
					for i, row := range s.rows {
						hits, colHits := 0, 1
						sr.Lookup(full, row, func(term.Tuple) bool { hits++; return true })
						if i%16 == 0 {
							colHits = 0
							sr.Lookup(0b01, row, func(u term.Tuple) bool { colHits++; return u.Equal(row) })
						}
						if hits != 1 || colHits != 1 || !sr.Contains(row) {
							t.Errorf("snapshot at CSN %d lost %v", s.view.CSN(), row)
						}
					}
					for i, row := range s.gone {
						colHits := 0
						if i%16 == 0 {
							sr.Lookup(0b01, row, func(term.Tuple) bool { colHits++; return true })
						}
						if sr.Contains(row) || colHits != 0 {
							t.Errorf("snapshot at CSN %d sees %v, deleted before capture", s.view.CSN(), row)
						}
					}
				}
				if err := s.view.(*snapStore).Close(); err != nil {
					t.Error(err)
				}
			}
		}()
	}

	var live, gone []term.Tuple
	next := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			row := pair(next, next+1)
			next++
			rel.Insert(row)
			live = append(live, row)
		}
		for _, row := range live[:4] {
			got := 0
			rel.Lookup(0b01, row, func(u term.Tuple) bool { got++; return u.Equal(row) })
			if got != 1 {
				t.Fatalf("round %d: live column lookup of %v found %d rows", round, row, got)
			}
		}
		// Delete the oldest third: flushed long ago, so run-resident.
		for i := 0; i < perRound/3; i++ {
			if !rel.Delete(live[0]) {
				t.Fatalf("round %d: %v not deleted", round, live[0])
			}
			gone = append(gone, live[0])
			live = live[1:]
		}
		st.AdvanceCSN()
		view, err := st.SnapshotView()
		if err != nil {
			t.Fatal(err)
		}
		sr, _ := view.Get(term.Intern("edge"), 2)
		if sr.Len() != len(live) {
			t.Fatalf("round %d: snapshot captured %d rows, the model has %d", round, sr.Len(), len(live))
		}
		sessions <- session{view: view, want: rowsKey(sr),
			rows: append([]term.Tuple(nil), live...), gone: append([]term.Tuple(nil), gone...)}
	}
	close(sessions)
	wg.Wait()
	if atomic.LoadInt64(&st.stats.RunsCompacted) == 0 {
		t.Error("the compactor never merged: the test did not exercise it")
	}
	if got := allRows(rel); len(got) != len(live) {
		t.Fatalf("live store has %d rows, want %d", len(got), len(live))
	}
}

// TestRunProbeSkipsDeadCopy builds a run holding a dead and a live copy of
// one tuple — what a compaction leaves when it carries a statement's
// uncommitted delete into the merged run beside the row's re-insert — and
// checks that the probe's table predicate skips the dead copy, both on the
// table built when the run was written and on one rebuilt from the run's
// hash section, as a reopened run loads it.
func TestRunProbeSkipsDeadCopy(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	x := pair(7, 8)
	rows := []term.Tuple{pair(1, 2), x, pair(3, 4), x}
	hashes := make([]uint64, len(rows))
	for i, r := range rows {
		hashes[i] = r.Hash()
	}
	rn, err := createRun(st, st.nextRunSeq(), 2, rows, hashes, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.release()
	rn.setTomb(1, 5)
	probe := func(u term.Tuple) int32 {
		got, slot, row := probeRuns([]*run{rn}, st.cache, st.stats, u.Hash(), u, storage.LiveCSN)
		if got == nil {
			return -1
		}
		if !row.Equal(u) {
			t.Fatalf("probe for %v returned row %v", u, row)
		}
		return slot
	}
	for _, reload := range []bool{false, true} {
		if reload {
			rn.tab = hashtab.Table{}
			rn.idxReady.Store(false)
		}
		for _, c := range []struct {
			row  term.Tuple
			slot int32
		}{{x, 3}, {pair(1, 2), 0}, {pair(3, 4), 2}, {pair(5, 6), -1}} {
			if got := probe(c.row); got != c.slot {
				t.Fatalf("reload=%v: probe %v found slot %d, want %d", reload, c.row, got, c.slot)
			}
		}
	}
	if n := atomic.LoadInt64(&st.stats.RunIndexLoads); n != 1 {
		t.Fatalf("%d run index loads, want 1 (the rebuild)", n)
	}
	rn.setTomb(3, 6)
	if got := probe(x); got != -1 {
		t.Fatalf("both copies dead: probe found slot %d", got)
	}
}
