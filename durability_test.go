package gluenail_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gluenail"
)

const durProg = `
edb fact(X, Y);
edb seed(X, Y);

proc grow(N :)
rels step(X);
  step(X) := in(X).
  repeat
    fact(X, Y) += step(X) & Y = X * X.
    step(X) := step(Y) & X = Y + 1 & X < 20.
  until unchanged(fact(_, _));
end
`

// queryDump renders a query result deterministically for comparison.
func queryDump(t *testing.T, sys *gluenail.System, goals string) string {
	t.Helper()
	res, err := sys.Query(goals)
	if err != nil {
		t.Fatalf("query %q: %v", goals, err)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Vars, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// relDump renders an EDB relation's sorted contents for comparison,
// without needing a loaded program.
func relDump(t *testing.T, sys *gluenail.System, rel string, arity int) string {
	t.Helper()
	text, err := relText(sys, rel, arity)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// relText is relDump for callers off the test goroutine.
func relText(sys *gluenail.System, rel string, arity int) (string, error) {
	rows, err := sys.Relation(rel, arity)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// populate drives the system through the three commit paths: Assert,
// a procedure call (VM statement boundaries), and Retract.
func populate(t *testing.T, sys *gluenail.System) {
	t.Helper()
	if err := sys.Load(durProg); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("seed", []any{int64(1), "one"}, []any{int64(2), "two"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Call("main", "grow", []any{int64(3)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Retract("seed", []any{int64(2), "two"}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableReopenMatchesInMemory is the headline acceptance check: a
// durable run abandoned without Close (simulated crash) re-opens to
// query output byte-identical to the same program run in memory.
func TestDurableReopenMatchesInMemory(t *testing.T) {
	mem := gluenail.New()
	populate(t, mem)
	wantFact := queryDump(t, mem, "fact(X, Y)")
	wantSeed := queryDump(t, mem, "seed(X, Y)")

	dir := filepath.Join(t.TempDir(), "data")
	sys, err := gluenail.Open(dir, gluenail.WithFsync(gluenail.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	populate(t, sys)
	// Crash: abandon without Close. FsyncAlways means every statement
	// boundary is already durable.

	re, err := gluenail.Open(dir)
	if err != nil {
		t.Fatalf("recovering after simulated crash: %v", err)
	}
	defer re.Close()
	if err := re.Load(durProg); err != nil {
		t.Fatal(err)
	}
	if got := queryDump(t, re, "fact(X, Y)"); got != wantFact {
		t.Errorf("fact after recovery:\ngot  %q\nwant %q", got, wantFact)
	}
	if got := queryDump(t, re, "seed(X, Y)"); got != wantSeed {
		t.Errorf("seed after recovery:\ngot  %q\nwant %q", got, wantSeed)
	}
}

// TestDurableCleanCloseReopens covers the orderly shutdown path under
// the default fsync mode, where Close must flush the batched tail.
func TestDurableCleanCloseReopens(t *testing.T) {
	dir := t.TempDir()
	sys, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, sys)
	want := queryDump(t, sys, "fact(X, Y)")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Load(durProg); err != nil {
		t.Fatal(err)
	}
	if got := queryDump(t, re, "fact(X, Y)"); got != want {
		t.Errorf("after clean close:\ngot  %q\nwant %q", got, want)
	}
}

// TestDurableAutoCheckpoint forces checkpoints with a tiny threshold and
// verifies state survives the rotations.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, err := gluenail.Open(dir, gluenail.WithCheckpointThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sys.Assert("tick", []any{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := relDump(t, sys, "tick", 1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := relDump(t, re, "tick", 1); got != want {
		t.Errorf("after auto checkpoints:\ngot  %q\nwant %q", got, want)
	}
}

// TestDurableExplicitCheckpoint exercises the public Checkpoint API.
func TestDurableExplicitCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("r", []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("r", []any{int64(2)}); err != nil {
		t.Fatal(err)
	}
	want := relDump(t, sys, "r", 1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := relDump(t, re, "r", 1); got != want {
		t.Errorf("after explicit checkpoint:\ngot  %q\nwant %q", got, want)
	}

	noDur := gluenail.New()
	if err := noDur.Checkpoint(); err == nil {
		t.Error("Checkpoint without durability must fail")
	}
}

// TestDurableLayeredBackend runs durability over the layered storage
// baseline, whose relations delegate to the same journal hooks.
func TestDurableLayeredBackend(t *testing.T) {
	dir := t.TempDir()
	sys, err := gluenail.Open(dir, gluenail.WithBaseline("layered"))
	if err != nil {
		t.Fatal(err)
	}
	populate(t, sys)
	want := queryDump(t, sys, "fact(X, Y)")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gluenail.Open(dir, gluenail.WithBaseline("layered"))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Load(durProg); err != nil {
		t.Fatal(err)
	}
	if got := queryDump(t, re, "fact(X, Y)"); got != want {
		t.Errorf("layered durability:\ngot  %q\nwant %q", got, want)
	}
}

// TestOpenBadPathFails surfaces recovery errors from Open immediately.
func TestOpenBadPathFails(t *testing.T) {
	dir := t.TempDir()
	// A file where the data directory should be.
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gluenail.Open(path); err == nil {
		t.Fatal("Open on a non-directory path must fail")
	}
}

// TestFailedStatementDoesNotCommit proves statement atomicity: a
// procedure that fails mid-statement leaves no partial deltas in the
// durable state.
func TestFailedStatementDoesNotCommit(t *testing.T) {
	prog := `
edb acc(X);

proc boom(N :)
  acc(X) += in(N) & X = N + 1.
  acc(X) += in(N) & X = N / 0.
end
`
	dir := t.TempDir()
	sys, err := gluenail.Open(dir, gluenail.WithFsync(gluenail.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Call("main", "boom", []any{int64(1)}); err == nil {
		t.Fatal("boom must fail on division by zero")
	}
	want := queryDump(t, sys, "acc(X)")
	// Crash without Close; recovery must agree with the live system: the
	// first statement committed, the failed one contributed nothing.
	re, err := gluenail.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Load(prog); err != nil {
		t.Fatal(err)
	}
	if got := queryDump(t, re, "acc(X)"); got != want {
		t.Errorf("after failed statement:\ngot  %q\nwant %q", got, want)
	}
	if !strings.Contains(want, "2") {
		t.Errorf("first statement should have committed: %q", want)
	}
}
