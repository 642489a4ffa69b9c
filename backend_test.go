package gluenail

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"gluenail/internal/storage"
)

// Storage-engine differential tests: the disk engine and the out-of-core
// spill path must be invisible in results — byte-identical answers to the
// main-memory engine on every program, and across a crash mid-spill.

// TestQuickBackendParity sweeps random programs through the main-memory
// engine, the disk engine, and the spill-configured scratch store: every
// combination must agree row for row.
func TestQuickBackendParity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDerived := 1 + rng.Intn(3)
		program := genProgram(rng, nDerived)
		e0, e1 := genFacts(rng, 5, 6+rng.Intn(8))
		target := fmt.Sprintf("d%d", nDerived-1)
		queries := []string{
			fmt.Sprintf("%s(X, Y)", target),
			fmt.Sprintf("%s(%d, Y)", target, rng.Intn(5)),
		}
		backends := map[string][]Option{
			"mem":   nil,
			"disk":  {WithBackend("disk")},
			"spill": {WithSpill(t.TempDir(), 8)},
		}
		var ref []string
		var refName string
		for name, opts := range backends {
			sys := New(opts...)
			if err := sys.Load(program); err != nil {
				t.Fatalf("seed %d: generated program invalid: %v\n%s", seed, err, program)
			}
			sys.Assert("e0", e0...)
			sys.Assert("e1", e1...)
			var got []string
			for _, q := range queries {
				res, err := sys.Query(q)
				if err != nil {
					t.Fatalf("seed %d (%s): query %s: %v\n%s",
						seed, name, q, err, program)
				}
				got = append(got, rowsKey(res))
			}
			sys.Close()
			if ref == nil {
				ref, refName = got, name
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("seed %d: %s disagrees with %s on %q:\n%s\nvs\n%s",
						seed, name, refName, queries[i], got[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

const tcProgram = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

// TestOutOfCoreRecursion runs a recursive query whose working set is more
// than ten times the scratch memory budget. Without spill the cardinality
// budget aborts the query with ErrMemoryBudget; with spill the same
// budget becomes the spill trigger and the answers are byte-identical to
// an unbudgeted in-memory run.
func TestOutOfCoreRecursion(t *testing.T) {
	const chain = 300
	const budget = 24 // chain/budget > 10: the working set dwarfs memory
	edges := make([][]any, chain)
	for i := range edges {
		edges[i] = []any{i, i + 1}
	}
	run := func(opts ...Option) (*Result, error) {
		sys := New(opts...)
		defer sys.Close()
		if err := sys.Load(tcProgram); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", edges...); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query("tc(0, X)")
		if err != nil {
			return nil, err
		}
		st := sys.Stats()
		if opts != nil {
			t.Logf("scratch: %d runs flushed, %d rows spilled, %d blocks read",
				st.Scratch.RunsFlushed, st.Scratch.RowsSpilled, st.Scratch.BlocksRead)
			if st.Scratch.RunsFlushed == 0 {
				t.Errorf("scratch store never spilled (budget %d, chain %d)", budget, chain)
			}
		}
		return res, nil
	}

	want, err := run() // unbudgeted, in-memory reference
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != chain {
		t.Fatalf("reference run: got %d rows, want %d", len(want.Rows), chain)
	}

	// The same budget without spill must abort: the spill path is what
	// turns the budget trip into out-of-core iteration.
	if _, err := run(WithBudget(Budget{MaxRelRows: budget})); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget without spill: got %v, want ErrMemoryBudget", err)
	}

	got, err := run(WithSpill(t.TempDir(), 0), WithBudget(Budget{MaxRelRows: budget}))
	if err != nil {
		t.Fatalf("out-of-core run: %v", err)
	}
	if rowsKey(got) != rowsKey(want) {
		t.Fatalf("out-of-core answers differ from in-memory:\n%s\nvs\n%s",
			rowsKey(got), rowsKey(want))
	}
}

// TestOutOfCoreDiskBackend is TestOutOfCoreRecursion's byte-identity check
// with the EDB itself on the disk engine as well: both stores out of core,
// same answers.
func TestOutOfCoreDiskBackend(t *testing.T) {
	const chain = 200
	edges := make([][]any, chain)
	for i := range edges {
		edges[i] = []any{i, i + 1}
	}
	var ref string
	for _, opts := range [][]Option{
		nil,
		{WithBackend("disk"), WithSpill(t.TempDir(), 16), WithBudget(Budget{MaxRelRows: 16})},
	} {
		sys := New(opts...)
		if err := sys.Load(tcProgram); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("edge", edges...); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query("tc(0, X)")
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
		if ref == "" {
			ref = rowsKey(res)
			continue
		}
		if rowsKey(res) != ref {
			t.Fatalf("disk+spill answers differ from in-memory:\n%s\nvs\n%s", rowsKey(res), ref)
		}
	}
}

const spillCrashEnv = "GLUENAIL_SPILL_CRASH_CHILD"

// TestSpillCrashChild is the helper process for TestSpillCrashRecovery:
// it grows a chain, re-deriving the full transitive closure into a
// durable relation after every edge, with scratch tables spilling at a
// tiny threshold — then gets SIGKILLed by the parent mid-work.
func TestSpillCrashChild(t *testing.T) {
	if os.Getenv(spillCrashEnv) == "" {
		t.Skip("helper process for TestSpillCrashRecovery")
	}
	dataDir := os.Getenv("GLUENAIL_CRASH_DATA")
	spillDir := os.Getenv("GLUENAIL_CRASH_SPILL")
	sys, err := Open(dataDir,
		WithFsync(FsyncAlways),
		WithSpill(spillDir, 16))
	if err != nil {
		fmt.Println("child-error:", err)
		os.Exit(1)
	}
	if err := sys.Load(`
edb edge(X,Y), out(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
proc step(:)
  out(X,Y) := tc(X,Y).
  return(:) := out(_,_).
end
`); err != nil {
		fmt.Println("child-error:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		if err := sys.Assert("edge", []any{i, i + 1}); err != nil {
			fmt.Println("child-error:", err)
			os.Exit(1)
		}
		if _, err := sys.Call("main", "step"); err != nil {
			fmt.Println("child-error:", err)
			os.Exit(1)
		}
		fmt.Printf("committed %d\n", i)
	}
}

// TestSpillCrashRecovery SIGKILLs a process mid-spill and checks both
// recovery invariants: the durable state recovers to a statement-boundary
// prefix (the out relation is the exact transitive closure of some prefix
// of the asserted chain — never a partial statement), and the dead
// process's spill directories are swept on the next startup.
func TestSpillCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	dataDir := t.TempDir()
	spillDir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestSpillCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		spillCrashEnv+"=1",
		"GLUENAIL_CRASH_DATA="+dataDir,
		"GLUENAIL_CRASH_SPILL="+spillDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Let the child commit enough statements that its transitive closure
	// re-derivations are spilling, then kill it without warning.
	sc := bufio.NewScanner(stdout)
	committed := -1
	deadline := time.After(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "child-error:") {
			t.Fatalf("child failed before kill: %s", line)
		}
		if n, err := fmt.Sscanf(line, "committed %d", &committed); n == 1 && err == nil && committed >= 40 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("child never reached 40 committed statements")
		default:
		}
	}
	if committed < 40 {
		t.Fatalf("child exited early (last committed %d): %v", committed, sc.Err())
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	childPid := cmd.Process.Pid

	// The child's spill directories survived the kill.
	orphans := countSpillDirs(t, spillDir, childPid)
	if orphans == 0 {
		t.Fatalf("child (pid %d) left no spill directories; spilling never engaged", childPid)
	}

	// Recover. Startup must sweep the dead child's spill directories.
	sys, err := Open(dataDir, WithSpill(spillDir, 16))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer sys.Close()
	if n := countSpillDirs(t, spillDir, childPid); n != 0 {
		t.Errorf("%d spill directories of dead pid %d survived the startup sweep", n, childPid)
	}

	// The recovered EDB is a statement-boundary prefix: edge is the exact
	// chain 0..k, with at least every edge whose commit the parent saw.
	edgeRows, err := sys.Relation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	k := len(edgeRows)
	if k <= committed {
		t.Fatalf("recovered %d edges, child reported %d committed (FsyncAlways)", k, committed)
	}
	for i, row := range edgeRows {
		if row[0].Int() != int64(i) || row[1].Int() != int64(i+1) {
			t.Fatalf("recovered edge[%d] = (%v,%v), want (%d,%d): not a chain prefix",
				i, row[0], row[1], i, i+1)
		}
	}

	// out must be the exact closure of SOME prefix of the chain — the
	// closure over edges 0..j is precisely {(a,b) : 0 <= a < b <= j}, so a
	// torn statement (partial closure) cannot masquerade as a boundary.
	outRows, err := sys.Relation("out", 2)
	if err != nil {
		t.Fatal(err)
	}
	var j int64
	for _, row := range outRows {
		if row[1].Int() > j {
			j = row[1].Int()
		}
	}
	if j > int64(k) {
		t.Fatalf("out reaches node %d but only %d edges recovered", j, k)
	}
	want := map[[2]int64]bool{}
	for a := int64(0); a < j; a++ {
		for b := a + 1; b <= j; b++ {
			want[[2]int64{a, b}] = true
		}
	}
	if len(outRows) != len(want) {
		t.Fatalf("out has %d rows; closure of prefix 0..%d has %d: not a statement boundary",
			len(outRows), j, len(want))
	}
	for _, row := range outRows {
		if !want[[2]int64{row[0].Int(), row[1].Int()}] {
			t.Fatalf("out contains (%v,%v), not in the closure of prefix 0..%d",
				row[0], row[1], j)
		}
	}
}

// countSpillDirs counts spill directories under dir owned by pid.
func countSpillDirs(t *testing.T, dir string, pid int) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), fmt.Sprintf("spill-%d-", pid)) {
			n++
		}
	}
	return n
}

// TestSpillDirOverlapRefused checks the startup-hygiene guard: a spill
// directory that coincides with or nests the data directory is refused
// with an actionable error instead of letting one store's sweep eat the
// other's files.
func TestSpillDirOverlapRefused(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ data, spill string }{
		{dir, dir},
		{dir, dir + "/spill"},
		{dir + "/data", dir},
	} {
		sys := New(WithDurability(tc.data), WithSpill(tc.spill, 16))
		_, err := sys.Query("x(1)")
		if err == nil || !strings.Contains(err.Error(), "directory") {
			t.Errorf("data=%s spill=%s: got %v, want overlap refusal", tc.data, tc.spill, err)
		}
		sys.Close()
	}
	// Disjoint directories are fine.
	sys := New(WithDurability(dir+"/a"), WithSpill(dir+"/b", 16))
	if err := sys.Assert("x", []any{1}); err != nil {
		t.Errorf("disjoint dirs refused: %v", err)
	}
	sys.Close()
}

const bulkCrashEnv = "GLUENAIL_BULK_CRASH_CHILD"

// TestBulkCrashChild is the helper process for TestBulkLoadCrashRecovery:
// it asserts batches large enough to take the WAL-bypassing bulk path,
// one batch per statement, until the parent SIGKILLs it.
func TestBulkCrashChild(t *testing.T) {
	if os.Getenv(bulkCrashEnv) == "" {
		t.Skip("helper process for TestBulkLoadCrashRecovery")
	}
	sys, err := Open(os.Getenv("GLUENAIL_BULK_DATA"),
		WithBackend("disk"),
		WithFsync(FsyncAlways))
	if err != nil {
		fmt.Println("child-error:", err)
		os.Exit(1)
	}
	if err := sys.Load(`edb edge(X,Y);`); err != nil {
		fmt.Println("child-error:", err)
		os.Exit(1)
	}
	n := storage.BulkThreshold
	for b := 0; ; b++ {
		rows := make([][]any, n)
		for j := 0; j < n; j++ {
			rows[j] = []any{b*n + j, b}
		}
		if err := sys.Assert("edge", rows...); err != nil {
			fmt.Println("child-error:", err)
			os.Exit(1)
		}
		fmt.Printf("committed %d\n", b)
	}
}

// TestBulkLoadCrashRecovery SIGKILLs a process mid-bulk-ingest and checks
// the recovered store is a statement-boundary prefix: whole batches only
// (the manifest is the bulk path's durability point; a half-built batch
// must be swept), in exact insertion order.
func TestBulkLoadCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	dataDir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestBulkCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		bulkCrashEnv+"=1",
		"GLUENAIL_BULK_DATA="+dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	committed := -1
	deadline := time.After(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "child-error:") {
			t.Fatalf("child failed before kill: %s", line)
		}
		if n, err := fmt.Sscanf(line, "committed %d", &committed); n == 1 && err == nil && committed >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("child never committed 3 bulk batches")
		default:
		}
	}
	if committed < 3 {
		t.Fatalf("child exited early (last committed %d): %v", committed, sc.Err())
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	sys, err := Open(dataDir, WithBackend("disk"))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer sys.Close()
	rows, err := sys.Relation("edge", 2)
	if err != nil {
		t.Fatal(err)
	}
	n := storage.BulkThreshold
	if len(rows)%n != 0 {
		t.Fatalf("recovered %d rows: not a whole number of %d-row batches", len(rows), n)
	}
	if k := len(rows) / n; k <= committed {
		t.Fatalf("recovered %d batches, child reported %d committed (FsyncAlways)", k, committed)
	}
	for i, row := range rows {
		if row[0].Int() != int64(i) || row[1].Int() != int64(i/n) {
			t.Fatalf("recovered row %d = (%v,%v), want (%d,%d): not an insertion-order prefix",
				i, row[0], row[1], i, i/n)
		}
	}
}
