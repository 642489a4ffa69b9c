package gluenail

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"gluenail/internal/storage/fsio"
)

// System-level fault containment: a disk fault or corrupt block inside a
// statement must surface as a typed error on that statement only — the
// store degrades to read-only, but the System is NOT poisoned and reads
// keep answering.

// TestDiskFaultDegradesSystemNotPoisoned injects ENOSPC into the disk
// backend's run writes through the public WithFS seam and checks the
// failure contract end to end.
func TestDiskFaultDegradesSystemNotPoisoned(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	sys := New(WithBackend("disk"), WithFS(ffs))
	defer sys.Close()

	if err := sys.Load(`edb edge(X,Y); edb big(X,Y);`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", []any{1, 2}, []any{2, 3}); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fsio.Fault{Op: fsio.OpWrite, Path: "run-", Err: syscall.ENOSPC})

	// A bulk-size batch goes through the run-writing path and hits the
	// fault; the statement fails typed, nothing panics out.
	big := make([][]any, 4096)
	for i := range big {
		big[i] = []any{i, i}
	}
	err := sys.Assert("big", big...)
	if !errors.Is(err, ErrDiskFault) {
		t.Fatalf("faulted bulk assert: got %v, want ErrDiskFault", err)
	}
	if sys.Degraded() == nil {
		t.Fatal("System.Degraded() = nil after a write fault")
	}

	// Not poisoned: reads still answer from the surviving state.
	res, qerr := sys.Query("edge(1, X)")
	if qerr != nil {
		t.Fatalf("query after fault: %v", qerr)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("query after fault: %d rows, want 1", len(res.Rows))
	}
	if _, rerr := sys.Relation("edge", 2); rerr != nil {
		t.Fatalf("relation dump after fault: %v", rerr)
	}

	// Further writes are refused typed — read-only degraded, not crashed.
	if err := sys.Assert("edge", []any{9, 9}); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("degraded assert: got %v, want ErrDiskFault", err)
	}
	if err := sys.Retract("edge", []any{1, 2}); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("degraded retract: got %v, want ErrDiskFault", err)
	}
}

// TestCorruptBlockContainedNotPoisoned flips tuple bytes in a durable
// run and checks a query over the damaged relation fails with a typed
// ErrCorrupt while queries over healthy relations keep working — the
// statement is contained at its boundary instead of poisoning the VM.
// Reads that bypass the VM (SaveCSV, a snapshot's Relation) fail typed
// too, rather than panicking out of the API.
func TestCorruptBlockContainedNotPoisoned(t *testing.T) {
	dataDir := t.TempDir()
	sys, err := Open(dataDir, WithBackend("disk"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(`edb edge(X,Y); edb ok(X);`); err != nil {
		t.Fatal(err)
	}
	big := make([][]any, 4096)
	for i := range big {
		big[i] = []any{i, i + 1}
	}
	if err := sys.Assert("edge", big...); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("ok", []any{7}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	runs, err := filepath.Glob(filepath.Join(dataDir, "store", "run-*.grn"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no durable runs found: %v %v", runs, err)
	}
	f, err := os.OpenFile(runs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the first block's payload: past the run magic,
	// arity varint, and the 8-byte frame header.
	var b [1]byte
	off := int64(len("GLUENAIL-RUN2\n") + 1 + 8 + 5)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x08
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sys2, err := Open(dataDir, WithBackend("disk"))
	if err != nil {
		t.Fatalf("reopen with lazily-read damage: %v", err)
	}
	defer sys2.Close()
	if err := sys2.Load(`edb edge(X,Y); edb ok(X);`); err != nil {
		t.Fatal(err)
	}

	_, qerr := sys2.Query("edge(X, Y)")
	if !errors.Is(qerr, ErrCorrupt) {
		t.Fatalf("query over corrupt run: got %v, want ErrCorrupt", qerr)
	}
	if err := sys2.SaveCSV("edge", 2, io.Discard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SaveCSV over corrupt run: got %v, want ErrCorrupt", err)
	}
	snap, err := sys2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Relation("edge", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Snapshot.Relation over corrupt run: got %v, want ErrCorrupt", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}

	// The poison line: the next statement must run normally.
	res, qerr := sys2.Query("ok(X)")
	if qerr != nil {
		t.Fatalf("system poisoned by contained corruption: %v", qerr)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("healthy relation misread after contained corruption: %v", res.Rows)
	}

	// ScrubEDB names the damage; with repair it quarantines the run and
	// the relation serves its survivors.
	findings, err := sys2.ScrubEDB(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("ScrubEDB found nothing on a damaged store")
	}
	// Quarantine granularity is the run: the damaged run's rows are gone,
	// and the relation answers again without error.
	rows, err := sys2.Relation("edge", 2)
	if err != nil {
		t.Fatalf("relation dump after scrub: %v", err)
	}
	if len(rows) >= 4096 {
		t.Fatalf("scrubbed relation still has all %d rows", len(rows))
	}
	if _, qerr := sys2.Query("edge(X, Y)"); qerr != nil {
		t.Fatalf("query after quarantine: %v", qerr)
	}
}

// TestSaveEDBSyncFault checks that SaveEDB writes through the WithFS seam
// and makes its image durable before naming it: a failed fsync of the
// image fails the call and leaves neither the target nor its temp file.
// A clean save then round-trips through LoadEDB on the same seam.
func TestSaveEDBSyncFault(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	sys := New(WithFS(ffs))
	defer sys.Close()
	if err := sys.Load(`edb edge(X,Y);`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", []any{1, 2}, []any{2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edb.img")
	ffs.Inject(fsio.Fault{Op: fsio.OpSync, Path: "edb.img", Err: syscall.EIO})
	if err := sys.SaveEDB(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("SaveEDB with a failing image sync: got %v, want EIO", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s left behind by the failed save (stat: %v)", filepath.Base(p), err)
		}
	}

	ffs.ClearRules()
	if err := sys.SaveEDB(path); err != nil {
		t.Fatal(err)
	}
	if ffs.OpsSeen(fsio.OpSync) == 0 {
		t.Error("SaveEDB never synced through the WithFS seam")
	}
	sys2 := New(WithFS(ffs))
	defer sys2.Close()
	if err := sys2.Load(`edb edge(X,Y);`); err != nil {
		t.Fatal(err)
	}
	reads := ffs.OpsSeen(fsio.OpOpen)
	if err := sys2.LoadEDB(path); err != nil {
		t.Fatal(err)
	}
	if ffs.OpsSeen(fsio.OpOpen) == reads {
		t.Error("LoadEDB did not open the image through the WithFS seam")
	}
	res, err := sys2.Query("edge(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("round trip: %d rows, want 2", len(res.Rows))
	}
}
