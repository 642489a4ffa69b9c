package gluenail

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Operations that once bypassed the System's entry point (do): each test
// fails when an operation skips the lock, the declared-arity check, the
// storage-fault guard, or the session's closed check.

// TestLoadCSVConcurrentWithAssert loads CSV rows into a relation while
// another goroutine asserts into it. Under -race an unlocked LoadCSV is a
// data race on the relation; without it, rows can go missing.
func TestLoadCSVConcurrentWithAssert(t *testing.T) {
	sys := New()
	if err := sys.Load(`edb e(X,Y);`); err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := sys.Assert("e", []any{i, i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := sys.LoadCSV("e", strings.NewReader(fmt.Sprintf("%d,%d\n", n+i, i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	rows, err := sys.Relation("e", 2)
	if err != nil || len(rows) != 2*n {
		t.Fatalf("after concurrent loads: %d rows (err %v), want %d", len(rows), err, 2*n)
	}
}

// TestLoadCSVDeclaredArity checks that LoadCSV, like Assert, refuses rows
// whose width differs from the compiled edb declaration, and loads
// nothing from the rejected file.
func TestLoadCSVDeclaredArity(t *testing.T) {
	sys := New()
	if err := sys.Load(`edb e(X,Y);`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query("e(X, Y)"); err != nil {
		t.Fatal(err)
	}
	assertErr := sys.Assert("e", []any{1, 2, 3})
	if assertErr == nil {
		t.Fatal("Assert of a 3-column row into e/2 succeeded")
	}
	csvErr := sys.LoadCSV("e", strings.NewReader("1,2,3\n"))
	if csvErr == nil || csvErr.Error() != assertErr.Error() {
		t.Fatalf("LoadCSV error = %v, want Assert's %q", csvErr, assertErr)
	}
	if rows, err := sys.Relation("e", 3); err != nil || rows != nil {
		t.Fatalf("rejected file created e/3: %v %v", rows, err)
	}
	if err := sys.LoadCSV("e", strings.NewReader("1,2\n")); err != nil {
		t.Fatalf("declared width refused: %v", err)
	}
}

// TestSnapshotRelationAfterClose checks a closed session refuses to read,
// on both storage engines (a closed disk-backed view has released its
// run files).
func TestSnapshotRelationAfterClose(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			sys := New(WithBackend(backend))
			defer sys.Close()
			if err := sys.Assert("e", []any{1}); err != nil {
				t.Fatal(err)
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if rows, err := snap.Relation("e", 1); err != nil || len(rows) != 1 {
				t.Fatalf("open session: %v %v", rows, err)
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if rows, err := snap.Relation("e", 1); !errors.Is(err, errSnapshotClosed) {
				t.Fatalf("Relation after Close = %v, %v; want the closed-session error", rows, err)
			}
		})
	}
}

// TestPreparedVarsConcurrentWithReprepare reads a handle's variables while
// recompiles make Execute re-prepare it. Under -race an unlocked Vars is a
// data race on the handle.
func TestPreparedVarsConcurrentWithReprepare(t *testing.T) {
	sys := New()
	if err := sys.Load(`edb e(X,Y);`); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare("e(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := sys.Load(fmt.Sprintf("edb g%d(X);", i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := p.Execute(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if vars := p.Vars(); strings.Join(vars, ",") != "X,Y" {
			t.Fatalf("Vars = %v, want [X Y]", vars)
		}
	}
}

// TestOpenFailureClosesEngines fails WAL recovery under a disk-backed EDB
// that runs a background scrubber, and checks that Open releases the
// engine it opened: the scrubber's goroutine must not outlive the failed
// Open.
func TestOpenFailureClosesEngines(t *testing.T) {
	dir := t.TempDir()
	// A log segment newer than every snapshot is a state recovery refuses.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.gnw"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := Open(dir, WithBackend("disk"), WithScrubInterval(time.Hour)); err == nil {
		t.Fatal("Open recovered a directory holding a stray log segment")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed Open, %d before: its disk engine was left open", n, before)
	}
}
