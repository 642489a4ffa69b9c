package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

func name(s string) term.Value { return term.NewString(s) }

func tup(vals ...int64) term.Tuple {
	t := make(term.Tuple, len(vals))
	for i, v := range vals {
		t[i] = term.NewInt(v)
	}
	return t
}

// dump serializes a store deterministically for state comparison.
func dump(t *testing.T, st storage.Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func newStore() *storage.MemStore { return storage.NewMemStore(storage.IndexAdaptive) }

func TestCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	st.SetJournal(rec)

	edge := st.Ensure(name("edge"), 2)
	edge.Insert(tup(1, 2))
	edge.Insert(tup(2, 3))
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	st.Ensure(name("node"), 1).Insert(tup(7))
	edge.Delete(tup(1, 2))
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	st.Ensure(name("scratch"), 1).Insert(tup(9))
	rel, _ := st.Get(name("scratch"), 1)
	rel.Clear()
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	want := dump(t, st)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newStore()
	log2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if got := dump(t, st2); got != want {
		t.Errorf("recovered store differs:\ngot  %q\nwant %q", got, want)
	}
}

func TestHiLogNamesAndValuesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	st.SetJournal(rec)
	set := term.Atom("students", term.NewString("cs99"))
	st.Ensure(set, 1).Insert(term.Tuple{term.NewFloat(2.5)})
	st.Ensure(set, 1).Insert(term.Tuple{term.Atom("pair", term.NewInt(1), term.NewString("x"))})
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	want := dump(t, st)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := newStore()
	log2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if got := dump(t, st2); got != want {
		t.Errorf("HiLog round trip differs:\ngot  %q\nwant %q", got, want)
	}
}

func TestCheckpointRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	st.SetJournal(rec)
	st.Ensure(name("r"), 1).Insert(tup(1))
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commits land in the new segment.
	st.Ensure(name("r"), 1).Insert(tup(2))
	if err := log.Commit(rec.Take()); err != nil {
		t.Fatal(err)
	}
	want := dump(t, st)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, wals, _, err := scanDir(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 2 || len(wals) != 1 || wals[0] != 2 {
		t.Errorf("after checkpoint want generation 2 only, got snaps %v wals %v", snaps, wals)
	}

	st2 := newStore()
	log2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if got := dump(t, st2); got != want {
		t.Errorf("post-checkpoint recovery differs:\ngot  %q\nwant %q", got, want)
	}
}

func TestShouldCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if !log.ShouldCheckpoint() {
		t.Error("threshold 1 should trigger immediately (header already exceeds it)")
	}
	log2dir := t.TempDir()
	log2, err := Open(log2dir, newStore(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if log2.ShouldCheckpoint() {
		t.Error("negative threshold must disable automatic checkpoints")
	}
}

func TestRecorderCoalescesBatches(t *testing.T) {
	rec := NewRecorder()
	rec.JournalCreate(name("r"), 2)
	rec.JournalInsert(name("r"), 2, tup(1, 1))
	rec.JournalInsert(name("r"), 2, tup(2, 2))
	rec.JournalDelete(name("r"), 2, tup(1, 1))
	rec.JournalInsert(name("r"), 2, tup(3, 3))
	ops := rec.Take()
	kinds := []OpKind{OpCreate, OpInsert, OpDelete, OpInsert}
	if len(ops) != len(kinds) {
		t.Fatalf("got %d ops, want %d (%+v)", len(ops), len(kinds), ops)
	}
	for i, k := range kinds {
		if ops[i].Kind != k {
			t.Errorf("op %d kind %d, want %d", i, ops[i].Kind, k)
		}
	}
	if len(ops[1].Tuples) != 2 {
		t.Errorf("adjacent same-relation inserts should coalesce: got %d tuples", len(ops[1].Tuples))
	}
	if rec.Pending() != 0 {
		t.Error("Take must drain the recorder")
	}
}

func TestForeignFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName(1)), []byte("not a wal, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, newStore(), Options{}); err == nil {
		t.Fatal("opening a directory with a foreign wal-1 file must fail")
	}
}

func TestCorruptSnapshotRefusedWithActionableError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(3)), []byte("garbage snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, newStore(), Options{})
	if err == nil {
		t.Fatal("corrupt snapshot must refuse recovery")
	}
	for _, wantSub := range []string{snapName(3), "restore"} {
		if !bytes.Contains([]byte(err.Error()), []byte(wantSub)) {
			t.Errorf("error %q should mention %q", err, wantSub)
		}
	}
}

func TestStrayLogSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	// A segment newer than every snapshot (other than the initial one)
	// cannot come from a crash of the protocol.
	if err := os.WriteFile(filepath.Join(dir, walName(5)), walMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, newStore(), Options{}); err == nil {
		t.Fatal("wal-5 without snap-5 must refuse recovery")
	}
}

func TestFsyncModesCommitDurably(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncBatch, FsyncNever} {
		dir := t.TempDir()
		st := newStore()
		log, err := Open(dir, st, Options{Fsync: mode})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		st.SetJournal(rec)
		st.Ensure(name("r"), 1).Insert(tup(int64(mode)))
		if err := log.Commit(rec.Take()); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		want := dump(t, st)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := newStore()
		log2, err := Open(dir, st2, Options{})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got := dump(t, st2); got != want {
			t.Errorf("mode %v: recovered store differs", mode)
		}
		log2.Close()
	}
}

func TestClosedLogRefusesOperations(t *testing.T) {
	dir := t.TempDir()
	st := newStore()
	log, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
	if err := log.Commit([]Op{{Kind: OpCreate, Name: name("r"), Arity: 1}}); err != ErrClosed {
		t.Errorf("Commit on closed log: got %v, want ErrClosed", err)
	}
	if err := log.Checkpoint(st); err != ErrClosed {
		t.Errorf("Checkpoint on closed log: got %v, want ErrClosed", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	st := newStore()
	st.Ensure(name("edge"), 2).Insert(tup(1, 2))
	st.Ensure(name("empty"), 3)
	path := filepath.Join(t.TempDir(), "snap.gns")
	if err := writeSnapshotFS(fsio.OS, path, st); err != nil {
		t.Fatal(err)
	}
	st2 := newStore()
	if err := readSnapshotFS(fsio.OS, path, st2); err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, st2), dump(t, st); got != want {
		t.Errorf("snapshot round trip differs:\ngot  %q\nwant %q", got, want)
	}
	if _, ok := st2.Get(name("empty"), 3); !ok {
		t.Error("empty relations must survive snapshots")
	}
}

// TestParseFsyncRoundTrips checks that every mode parses back from its
// String, that the aliases select their modes, and that anything else is
// refused.
func TestParseFsyncRoundTrips(t *testing.T) {
	for _, m := range []FsyncMode{FsyncBatch, FsyncAlways, FsyncNever} {
		got, err := ParseFsync(m.String())
		if err != nil || got != m {
			t.Errorf("ParseFsync(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for s, want := range map[string]FsyncMode{"": FsyncBatch, "never": FsyncNever} {
		if got, err := ParseFsync(s); err != nil || got != want {
			t.Errorf("ParseFsync(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"sometimes", "Always", "FsyncMode(3)"} {
		if _, err := ParseFsync(s); err == nil {
			t.Errorf("ParseFsync(%q) accepted", s)
		}
	}
}
