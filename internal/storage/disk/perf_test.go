package disk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// Tests for the fast-engine pieces: bloom filters, block compression,
// size-tiered compaction, the WAL-bypassing bulk load, and the reopen
// path (footer-only opens, legacy-format refusal, crash prefixes).

// TestBloomFPRBound checks the filter's false-positive rate stays near
// its design point (~0.8% at 10 bits/key, 6 hashes); 2% is the alarm
// threshold for a sizing or mixing regression.
func TestBloomFPRBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nKeys, nProbes = 10000, 100000
	keys := make([]uint64, nKeys)
	present := make(map[uint64]bool, nKeys)
	for i := range keys {
		keys[i] = rng.Uint64()
		present[keys[i]] = true
	}
	b := bloomFrom(keys)
	for _, h := range keys {
		if !b.mayContain(h) {
			t.Fatalf("bloom lost inserted key %#x", h)
		}
	}
	fp := 0
	for i := 0; i < nProbes; i++ {
		h := rng.Uint64()
		if present[h] {
			continue
		}
		if b.mayContain(h) {
			fp++
		}
	}
	if rate := float64(fp) / nProbes; rate > 0.02 {
		t.Fatalf("false-positive rate %.4f exceeds 2%% bound", rate)
	}
}

// sameValue is structural equality with bit-exact floats: NaN payloads
// and the sign of zero must survive a round trip even though term.Equal
// (IEEE semantics) says NaN != NaN.
func sameValue(a, b term.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case term.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case term.Compound:
		if a.NumArgs() != b.NumArgs() || !sameValue(a.Functor(), b.Functor()) {
			return false
		}
		for i := 0; i < a.NumArgs(); i++ {
			if !sameValue(a.Arg(i), b.Arg(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// randomValue generates a value of any persistable shape, including the
// awkward ones: extreme ints (delta coding must wrap correctly), float
// bit patterns, oversized strings, and nested HiLog compounds whose
// functor is itself compound.
func randomValue(rng *rand.Rand, depth int) term.Value {
	kinds := 6
	if depth <= 0 {
		kinds = 4
	}
	switch rng.Intn(kinds) {
	case 0:
		switch rng.Intn(4) {
		case 0:
			return term.NewInt(math.MaxInt64 - int64(rng.Intn(3)))
		case 1:
			return term.NewInt(math.MinInt64 + int64(rng.Intn(3)))
		default:
			return term.NewInt(rng.Int63n(2000) - 1000)
		}
	case 1:
		bits := []float64{
			rng.NormFloat64(), math.NaN(), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		}
		return term.NewFloat(bits[rng.Intn(len(bits))])
	case 2:
		return term.Intern(fmt.Sprintf("atom_%d", rng.Intn(40)))
	case 3:
		// Past internInlineLimit: stays inline, never enters the dict.
		return term.Intern(strings.Repeat("x", internInlineLimit+1+rng.Intn(64)))
	case 4:
		fn := term.Intern(fmt.Sprintf("f%d", rng.Intn(4)))
		nargs := 1 + rng.Intn(3)
		args := make([]term.Value, nargs)
		for i := range args {
			args[i] = randomValue(rng, depth-1)
		}
		return term.NewCompound(fn, args...)
	default:
		// HiLog: compound in functor position.
		inner := term.NewCompound(term.Intern("g"), randomValue(rng, 0))
		return term.NewCompound(inner, randomValue(rng, depth-1))
	}
}

// TestBlockPayloadRoundTrip is the compression property test: random
// blocks survive encode/decode bit-exactly under both encodings, and the
// packed form actually engages for the data it targets.
func TestBlockPayloadRoundTrip(t *testing.T) {
	d, err := newAtomDict(fsio.OS, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		arity := 1 + rng.Intn(4)
		rows := make([]term.Tuple, rng.Intn(40))
		for i := range rows {
			tup := make(term.Tuple, arity)
			for j := range tup {
				tup[j] = randomValue(rng, 2)
			}
			rows[i] = tup
		}
		for _, compress := range []bool{true, false} {
			payload := encodeBlockPayload(d, rows, compress)
			if !compress && payload[0] != blockEncRaw {
				t.Fatalf("iter %d: compression disabled but block is packed", iter)
			}
			got, err := decodeBlockPayload(d, payload, arity)
			if err != nil {
				t.Fatalf("iter %d compress=%v: %v", iter, compress, err)
			}
			if len(got) != len(rows) {
				t.Fatalf("iter %d: %d rows, want %d", iter, len(got), len(rows))
			}
			for i := range rows {
				// The point-probe decoder must produce the same row from
				// the same bytes as the whole-block one.
				one, err := decodeRowAt(d, payload, arity, i)
				if err != nil {
					t.Fatalf("iter %d compress=%v: decodeRowAt(%d): %v", iter, compress, i, err)
				}
				for j := range rows[i] {
					if !sameValue(got[i][j], rows[i][j]) {
						t.Fatalf("iter %d compress=%v row %d col %d: %v != %v",
							iter, compress, i, j, got[i][j], rows[i][j])
					}
					if !sameValue(one[j], got[i][j]) {
						t.Fatalf("iter %d compress=%v row %d col %d: single-row decode %v, block decode %v",
							iter, compress, i, j, one[j], got[i][j])
					}
				}
			}
			if _, err := decodeRowAt(d, payload, arity, len(rows)); err == nil {
				t.Fatalf("iter %d compress=%v: decodeRowAt past the last row succeeded", iter, compress)
			}
		}
	}
	// Dense integer keys and repeated atoms are the target workload: the
	// packed encoding must win (and by a wide margin for sequential ints).
	dense := make([]term.Tuple, 256)
	for i := range dense {
		dense[i] = term.Tuple{term.NewInt(int64(i)), term.Intern("label")}
	}
	packed := encodeBlockPayload(d, dense, true)
	raw := encodeBlockPayload(d, dense, false)
	if packed[0] != blockEncPacked {
		t.Fatal("dense block did not choose the packed encoding")
	}
	if len(packed)*2 >= len(raw) {
		t.Fatalf("packed %dB vs raw %dB: expected >2x on dense keys", len(packed), len(raw))
	}
}

// TestTierPolicy pins the tier function and the window picker: the
// compactor must select the longest lowest-tier contiguous window, not
// the whole list.
func TestTierPolicy(t *testing.T) {
	for _, tc := range []struct{ rows, tier int }{
		{0, 0}, {3, 0}, {4, 1}, {15, 1}, {16, 2}, {63, 2}, {64, 3}, {4096, 6},
	} {
		if got := runTier(tc.rows); got != tc.tier {
			t.Errorf("runTier(%d) = %d, want %d", tc.rows, got, tc.tier)
		}
	}

	st := openTest(t, t.TempDir(), Options{FlushRows: 1000})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	r := rel.(*Rel)
	next := 0
	mkRun := func(n int) {
		for i := 0; i < n; i++ {
			rel.Insert(pair(next, next+1))
			next++
		}
		if err := r.flush(false); err != nil {
			t.Fatal(err)
		}
	}
	// Run sizes 20, 2×6, 30: tiers 2, 0×6, 2. The six tier-0 runs form
	// the only window reaching the threshold (6).
	mkRun(20)
	for i := 0; i < 6; i++ {
		mkRun(2)
	}
	mkRun(30)
	want := allRows(rel)

	pr, lo, hi := st.pickCompactable()
	if pr != r || lo != 1 || hi != 7 {
		t.Fatalf("pickCompactable = (%v, %d, %d), want (edge, 1, 7)", pr, lo, hi)
	}
	if !st.compactOne(r, lo, hi) {
		t.Fatal("compactOne reported no progress")
	}
	runs := *r.runs.Load()
	if len(runs) != 3 {
		t.Fatalf("%d runs after tiered compaction, want 3 (large runs untouched)", len(runs))
	}
	if runs[0].nrows != 20 || runs[1].nrows != 12 || runs[2].nrows != 30 {
		t.Fatalf("run sizes %d,%d,%d after compaction, want 20,12,30",
			runs[0].nrows, runs[1].nrows, runs[2].nrows)
	}
	if got := allRows(rel); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tiered compaction changed enumeration:\n got %v\nwant %v", got, want)
	}
	// The merged window is tier 1 now; no window reaches the threshold.
	if pr, _, _ := st.pickCompactable(); pr != nil {
		t.Fatal("pickCompactable found a window in a settled store")
	}
}

// TestTieredCompactionUnderSnapshot captures a view, compacts a middle
// window beneath it (with a pending delete in the window), and checks
// both the snapshot and the live store keep exact content and order.
func TestTieredCompactionUnderSnapshot(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FlushRows: 1000})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	r := rel.(*Rel)
	for i := 0; i < 24; i++ {
		rel.Insert(pair(i, i+1))
		if i%3 == 2 {
			if err := r.flush(false); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.AdvanceCSN()
	view, err := st.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	snapRel, _ := view.Get(term.Intern("edge"), 2)

	rel.Delete(pair(7, 8)) // run-resident, inside the window, uncommitted
	if !st.compactOne(r, 1, 5) {
		t.Fatal("compactOne reported no progress")
	}
	if n := len(*r.runs.Load()); n != 5 {
		t.Fatalf("%d runs after windowed compaction, want 5", n)
	}
	snapRows := allRows(snapRel)
	if len(snapRows) != 24 {
		t.Fatalf("snapshot sees %d rows, want 24", len(snapRows))
	}
	for i, row := range snapRows {
		if row != [2]int64{int64(i), int64(i + 1)} {
			t.Fatalf("snapshot row %d = %v after compaction", i, row)
		}
	}
	live := allRows(rel)
	if len(live) != 23 || rel.Contains(pair(7, 8)) {
		t.Fatalf("live store: %d rows, contains(7,8)=%v; want 23, false",
			len(live), rel.Contains(pair(7, 8)))
	}
	// The uncommitted tombstone must have been carried into the merged
	// run, not silently dropped.
	st.AdvanceCSN()
	if rel.Contains(pair(7, 8)) {
		t.Fatal("deleted row resurfaced after compaction + commit")
	}
	if err := view.(*snapStore).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenEquivalence is the golden round trip: a store with mixed
// value shapes, deletes, and several runs must reopen byte-identical —
// same enumeration order, same planner digests — without decoding a
// single block until something actually reads.
func TestReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{FlushRows: 8})
	rel := st.Ensure(term.Intern("fact"), 2)
	for i := 0; i < 60; i++ {
		var v term.Value
		switch i % 4 {
		case 0:
			v = term.NewInt(int64(i * 7))
		case 1:
			v = term.NewFloat(float64(i) / 3)
		case 2:
			v = term.Intern(fmt.Sprintf("node_%d", i%9))
		default:
			v = term.NewCompound(term.Intern("p"), term.NewInt(int64(i)), term.Intern("tag"))
		}
		rel.Insert(term.Tuple{term.NewInt(int64(i)), v})
	}
	rel.Delete(term.Tuple{term.NewInt(13), term.NewFloat(13.0 / 3)})
	st.AdvanceCSN()
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	want := rel.All()
	wantDist := [2]int{rel.DistinctEst(0), rel.DistinctEst(1)}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir, Options{FlushRows: 8})
	defer st2.Close()
	if got := atomic.LoadInt64(&st2.Stats().BlocksRead); got != 0 {
		t.Fatalf("reopen decoded %d blocks; RUN2 opens must be footer-only", got)
	}
	rel2, ok := st2.Get(term.Intern("fact"), 2)
	if !ok {
		t.Fatal("relation missing after reopen")
	}
	if d := [2]int{rel2.DistinctEst(0), rel2.DistinctEst(1)}; d != wantDist {
		t.Fatalf("distinct digests %v after reopen, want %v", d, wantDist)
	}
	got := rel2.All()
	if len(got) != len(want) {
		t.Fatalf("%d rows after reopen, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity changed", i)
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if atomic.LoadInt64(&st2.Stats().BlocksRead) == 0 {
		t.Fatal("enumeration read no blocks; stat accounting broken")
	}
}

// TestReopenUncompressedReadsCompressed flips the compression setting
// between opens: blocks written packed must read fine from a store
// configured raw, and vice versa.
func TestReopenUncompressedReadsCompressed(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{FlushRows: 8})
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 40; i++ {
		rel.Insert(pair(i, i+1))
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTest(t, dir, Options{FlushRows: 8, NoCompress: true})
	rel2, _ := st2.Get(term.Intern("edge"), 2)
	rows := allRows(rel2)
	if len(rows) != 40 {
		t.Fatalf("%d rows reading packed blocks from a raw-configured store, want 40", len(rows))
	}
	for i := 40; i < 60; i++ {
		rel2.Insert(pair(i, i+1))
	}
	if err := st2.FlushBase(); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3 := openTest(t, dir, Options{FlushRows: 8})
	defer st3.Close()
	rel3, _ := st3.Get(term.Intern("edge"), 2)
	rows = allRows(rel3)
	if len(rows) != 60 {
		t.Fatalf("%d rows after mixed-encoding reopen, want 60", len(rows))
	}
	for i, row := range rows {
		if row != [2]int64{int64(i), int64(i + 1)} {
			t.Fatalf("row %d = %v after mixed-encoding reopen", i, row)
		}
	}
}

// TestBloomScreensMissProbes reopens a multi-run store and probes absent
// keys: blooms must answer without loading a single hash index, while
// the NoBloom ablation pays one index load per run. This is the unit-
// level form of the E18 membership-miss experiment.
func TestBloomScreensMissProbes(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{FlushRows: 64})
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 512; i++ {
		rel.Insert(pair(i, i+1))
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	nruns := len(*rel.(*Rel).runs.Load())
	if nruns < 8 {
		t.Fatalf("need >= 8 runs, have %d", nruns)
	}
	st.Close()

	probe := func(opts Options) (loads, checks, skips int64) {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r, _ := s.Get(term.Intern("edge"), 2)
		for i := 0; i < 10; i++ {
			if r.Contains(pair(1000000+i, i)) {
				t.Fatalf("absent key %d reported present", i)
			}
		}
		stats := s.Stats()
		return atomic.LoadInt64(&stats.RunIndexLoads),
			atomic.LoadInt64(&stats.BloomChecks),
			atomic.LoadInt64(&stats.BloomSkips)
	}

	loads, checks, skips := probe(Options{FlushRows: 64, NoCompactor: true})
	if checks == 0 || skips != checks {
		t.Fatalf("blooms: %d checks, %d skips; every miss probe must be screened", checks, skips)
	}
	if loads != 0 {
		t.Fatalf("blooms: %d index loads on misses, want 0", loads)
	}
	ablLoads, _, ablSkips := probe(Options{FlushRows: 64, NoCompactor: true, NoBloom: true})
	if ablSkips != 0 {
		t.Fatalf("NoBloom ablation skipped %d probes", ablSkips)
	}
	if ablLoads != int64(nruns) {
		t.Fatalf("NoBloom: %d index loads, want one per run (%d)", ablLoads, nruns)
	}
}

// TestBulkLoadDedupAndOrder checks the WAL-bypassing path deduplicates
// against the memtable, existing runs, and within the batch, and that
// enumeration order matches what row-at-a-time inserts would produce.
func TestBulkLoadDedupAndOrder(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FlushRows: 16})
	defer st.Close()
	name := term.Intern("edge")
	rel := st.Ensure(name, 2)
	rel.Insert(pair(0, 1)) // memtable-resident before the bulk
	rel.Insert(pair(1, 2))

	batch := []term.Tuple{
		pair(0, 1),   // dup vs memtable
		pair(5, 6),   // fresh
		pair(5, 6),   // in-batch dup
		pair(6, 7),   // fresh
		pair(1, 2),   // dup vs memtable
		pair(100, 0), // fresh
	}
	added, err := st.BulkLoad(name, 2, batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 {
		t.Fatalf("bulk added %d rows, want 3", added)
	}
	if rel.Len() != 5 {
		t.Fatalf("Len() = %d after bulk, want 5", rel.Len())
	}
	want := [][2]int64{{0, 1}, {1, 2}, {5, 6}, {6, 7}, {100, 0}}
	if got := allRows(rel); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bulk order:\n got %v\nwant %v", got, want)
	}
	// Second bulk dedups against the runs the first one built.
	added, err = st.BulkLoad(name, 2, []term.Tuple{pair(5, 6), pair(7, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || rel.Len() != 6 {
		t.Fatalf("second bulk: added=%d len=%d, want 1 and 6", added, rel.Len())
	}
	if bulk := atomic.LoadInt64(&st.Stats().BulkRows); bulk != 4 {
		t.Fatalf("BulkRows stat = %d, want 4", bulk)
	}
}

// TestBulkLoadCrashPrefix simulates a crash between BulkLoad and the
// manifest commit: the bulk runs are durable files but unreferenced, so
// reopen must sweep them and recover exactly the pre-statement state —
// the all-or-nothing half of the statement-boundary-prefix guarantee.
func TestBulkLoadCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{FlushRows: 16})
	name := term.Intern("edge")
	rel := st.Ensure(name, 2)
	for i := 0; i < 10; i++ {
		rel.Insert(pair(i, i+1))
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	batch := make([]term.Tuple, 64)
	for i := range batch {
		batch[i] = pair(1000+i, i)
	}
	if _, err := st.BulkLoad(name, 2, batch); err != nil {
		t.Fatal(err)
	}
	// Crash before FlushBase: abandon without writing a manifest.
	st.Close()

	st2 := openTest(t, dir, Options{FlushRows: 16})
	defer st2.Close()
	rel2, ok := st2.Get(name, 2)
	if !ok {
		t.Fatal("baseline relation missing after crash reopen")
	}
	if rel2.Len() != 10 {
		t.Fatalf("recovered %d rows, want the 10-row pre-bulk prefix", rel2.Len())
	}
	if rel2.Contains(pair(1000, 0)) {
		t.Fatal("half-loaded bulk row visible after crash recovery")
	}
	// The orphaned bulk runs must be gone from disk, not just unreferenced.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	nruns := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".grn") {
			nruns++
		}
	}
	if durable := len(*rel2.(*Rel).runs.Load()); nruns != durable {
		t.Fatalf("%d run files on disk but %d referenced; orphan sweep missed bulk runs", nruns, durable)
	}
}

// TestLegacyFormatRefused pins the refusal of the retired pre-footer
// formats: a RUN1 run named by a valid manifest, and a MAN1 manifest, each
// fail Open with ErrCorrupt naming the artifact, and FsckDir reports each
// as serious damage.
func TestLegacyFormatRefused(t *testing.T) {
	// RUN1: magic, arity, then bare CRC-framed blocks of length-prefixed
	// tuples; no footer, no trailer.
	var block bytes.Buffer
	block.Write(binary.AppendUvarint(nil, 1))
	if err := term.WriteTuple(&block, pair(1, 2)); err != nil {
		t.Fatal(err)
	}
	run1 := binary.AppendUvarint([]byte("GLUENAIL-RUN1\n"), 2)
	run1 = binary.LittleEndian.AppendUint32(run1, uint32(block.Len()))
	run1 = binary.LittleEndian.AppendUint32(run1, crc32.ChecksumIEEE(block.Bytes()))
	run1 = append(run1, block.Bytes()...)
	// MAN1: the MAN2 payload without the distinct digests.
	man1 := binary.AppendUvarint(nil, 1) // run sequence
	man1 = binary.AppendUvarint(man1, 1) // relations
	man1 = term.AppendValue(man1, term.Intern("edge"))
	man1 = binary.AppendUvarint(man1, 2) // arity
	man1 = binary.AppendUvarint(man1, 1) // runs
	man1 = binary.AppendUvarint(man1, 1) // run 1

	for _, tc := range []struct{ name, artifact string }{
		{"run1", "run-header"},
		{"man1", "manifest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, runName(1)), run1, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.name == "man1" {
				if err := os.WriteFile(filepath.Join(dir, manifestName), sealManifest("GLUENAIL-MAN1\n", man1), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := writeManifestImage(fsio.OS, dir, &manifestImage{runSeq: 1, rels: []manifestRel{{
				name: term.Intern("edge"), arity: 2, dist: storage.NewDistinctTracker(2), runs: []uint64{1},
			}}}); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{NoCompactor: true})
			if st != nil {
				st.Close()
			}
			requireCorrupt(t, err, tc.artifact)
			requireFinding(t, dir, tc.artifact)
		})
	}
}

// TestInternTablePersists checks the dictionary round trip: atoms packed
// into blocks resolve after reopen without re-interning from row bytes,
// and a torn tail (half-written record) truncates cleanly.
func TestInternTablePersists(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{FlushRows: 4})
	rel := st.Ensure(term.Intern("tag"), 2)
	atoms := []string{"alpha", "alphabet", "alphabetical", "beta", "betamax"}
	for i, a := range atoms {
		rel.Insert(term.Tuple{term.NewInt(int64(i)), term.Intern(a)})
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt: append a torn half-record to the intern file.
	internPath := filepath.Join(dir, internFileName)
	f, err := os.OpenFile(internPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x05, 'h', 'a'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openTest(t, dir, Options{FlushRows: 4})
	defer st2.Close()
	rel2, _ := st2.Get(term.Intern("tag"), 2)
	got := rel2.All()
	if len(got) != len(atoms) {
		t.Fatalf("%d rows after reopen, want %d", len(got), len(atoms))
	}
	for i, a := range atoms {
		if got[i][1].Str() != a {
			t.Fatalf("row %d atom %q, want %q", i, got[i][1].Str(), a)
		}
	}
}
