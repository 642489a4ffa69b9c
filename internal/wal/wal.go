// Package wal is the durability subsystem for the EDB: an append-only,
// CRC32-checksummed write-ahead log of committed deltas plus snapshot
// checkpoints. The paper's tailored back end is strictly main-memory (§6:
// "data must fit in main memory"); this package keeps that execution
// model while making the EDB survive crashes.
//
// A durable directory holds at most one generation of files at a time:
//
//	snap-%08d.gns  checkpoint: every EDB relation, CRC-sealed
//	wal-%08d.gnw   log of deltas committed since that snapshot
//
// The log is a sequence of framed records, each
//
//	kind(u8) | len(u32le) | crc32(u32le over kind+payload) | payload
//
// Delta records (insert/delete tuple batches, relation create/clear)
// carry the relation name in term encoding; a commit record seals all
// deltas since the previous commit into one atomic batch, written with a
// single write call at a top-level statement boundary. Recovery loads
// the newest snapshot, replays only sealed batches, and truncates any
// torn or corrupt tail, so a crash at any byte recovers to a
// statement-boundary prefix of the committed history. States that cannot
// be explained by a crash of this protocol (a corrupt snapshot, a log
// newer than every snapshot) are refused with actionable errors instead
// of guessed at.
//
// Fsync policy trades durability window for throughput: every commit
// (FsyncAlways), group-commit batches of bytes/commits (FsyncBatch, the
// default), or never (FsyncNever — the OS decides; Close still syncs).
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// OpKind identifies a logged EDB delta.
type OpKind uint8

const (
	// OpInsert adds a batch of tuples to a relation.
	OpInsert OpKind = 1
	// OpDelete removes a batch of tuples from a relation.
	OpDelete OpKind = 2
	// OpCreate creates an (empty) relation.
	OpCreate OpKind = 3
	// OpClear empties a relation.
	OpClear OpKind = 4
	// opCommit seals the deltas since the previous commit record.
	opCommit OpKind = 5
)

// Op is one logged delta: a tuple batch for OpInsert/OpDelete, bare
// relation identity for OpCreate/OpClear.
type Op struct {
	Kind   OpKind
	Name   term.Value
	Arity  int
	Tuples []term.Tuple
}

// FsyncMode selects when committed log records are forced to disk.
type FsyncMode uint8

const (
	// FsyncBatch syncs once a group-commit batch of bytes or commits has
	// accumulated (and always on Close/Checkpoint): the default. A crash
	// loses at most the unsynced batch, never consistency.
	FsyncBatch FsyncMode = iota
	// FsyncAlways syncs after every commit.
	FsyncAlways
	// FsyncNever leaves flushing to the OS; Close still syncs.
	FsyncNever
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "none"
	}
	return fmt.Sprintf("FsyncMode(%d)", uint8(m))
}

// ParseFsync returns the mode a name selects: a String result, "never"
// for FsyncNever, or "" for the default FsyncBatch.
func ParseFsync(s string) (FsyncMode, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "none", "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("fsync mode wants batch, always, or none; got %q", s)
}

// Defaults for Options zero values.
const (
	DefaultBatchBytes      = 256 << 10
	DefaultBatchCommits    = 64
	DefaultCheckpointBytes = 8 << 20
)

// Options tunes a Log; zero values select the documented defaults.
type Options struct {
	// Fsync is the durability mode (default FsyncBatch).
	Fsync FsyncMode
	// BatchBytes is the group-commit byte threshold for FsyncBatch.
	BatchBytes int
	// BatchCommits is the group-commit commit-count threshold for
	// FsyncBatch.
	BatchCommits int
	// CheckpointBytes is the log size at which ShouldCheckpoint reports
	// true; negative disables size-triggered checkpoints.
	CheckpointBytes int64
	// FS routes the log's file I/O; nil selects the real filesystem
	// (fsio.OS). Tests swap in a fault-injecting implementation.
	FS fsio.FS
}

func (o Options) batchBytes() int {
	if o.BatchBytes > 0 {
		return o.BatchBytes
	}
	return DefaultBatchBytes
}

func (o Options) batchCommits() int {
	if o.BatchCommits > 0 {
		return o.BatchCommits
	}
	return DefaultBatchCommits
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes != 0 {
		return o.CheckpointBytes
	}
	return DefaultCheckpointBytes
}

func (o Options) fs() fsio.FS {
	if o.FS != nil {
		return o.FS
	}
	return fsio.OS
}

var walMagic = []byte("GLUENAIL-WAL1\n")

// errNotWAL reports a log file whose header is not ours (and is too long
// to be a torn header write).
var errNotWAL = errors.New("wal: file is not a Glue-Nail write-ahead log")

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

// maxRecordLen bounds a single record so a corrupt length field cannot
// drive a huge allocation during recovery.
const maxRecordLen = 1 << 30

func walName(seq uint64) string { return fmt.Sprintf("wal-%08d.gnw", seq) }

func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.gns", seq) }

// Log is an open write-ahead log positioned to append committed deltas.
// Methods are safe for concurrent use, though the executor serializes
// commits at statement boundaries anyway.
type Log struct {
	dir  string
	opts Options
	fsys fsio.FS

	mu              sync.Mutex
	f               fsio.File
	seq             uint64
	size            int64
	unsyncedBytes   int64
	unsyncedCommits int
	buf             []byte
}

// Open recovers the durable EDB state under dir into store (newest valid
// snapshot plus the sealed log tail, truncating any torn suffix) and
// returns a Log positioned to append new commits. The store should be
// empty and must not have a journal attached yet — replayed deltas must
// not be re-journaled.
func Open(dir string, store storage.Store, opts Options) (*Log, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, storage.IOFault("wal-open", dir, err)
	}
	snaps, wals, tmps, err := scanDir(fsys, dir)
	if err != nil {
		return nil, storage.IOFault("wal-open", dir, err)
	}
	// Temp files are leftovers of an interrupted checkpoint: discard.
	for _, p := range tmps {
		_ = fsys.Remove(p)
	}
	var base uint64
	if len(snaps) > 0 {
		base = snaps[len(snaps)-1]
	}
	// A log segment newer than every snapshot cannot result from a crash
	// of this protocol (segment N is created only after snapshot N is
	// durable) — except for the very first segment, which has no
	// snapshot. Refuse to guess.
	for _, w := range wals {
		if w > base && !(base == 0 && w == 1) {
			return nil, fmt.Errorf("wal: %s exists but %s is missing; the directory is not a state this recovery protocol can produce — restore the snapshot or remove the stray log segment",
				walName(w), snapName(w))
		}
	}
	seq := base
	if seq == 0 {
		seq = 1
	}
	if base > 0 {
		path := filepath.Join(dir, snapName(base))
		if err := readSnapshotFS(fsys, path, store); err != nil {
			return nil, fmt.Errorf("wal: loading snapshot %s: %w; the newest snapshot is unreadable and recovery refuses to silently fall back — restore the file, or remove it together with %s to recover from the previous generation",
				path, err, walName(base))
		}
	}
	f, size, err := recoverSegment(fsys, filepath.Join(dir, walName(seq)), store)
	if err != nil {
		return nil, err
	}
	// Recovery succeeded; stale files from before the last completed
	// checkpoint can go. Failures here are tolerable (the files are
	// ignored by recovery either way) — log and continue.
	for _, s := range snaps {
		if s < base {
			removeBestEffort(fsys, filepath.Join(dir, snapName(s)))
		}
	}
	for _, w := range wals {
		if w < seq {
			removeBestEffort(fsys, filepath.Join(dir, walName(w)))
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, storage.IOFault("wal-open", dir, err)
	}
	return &Log{dir: dir, opts: opts, fsys: fsys, f: f, seq: seq, size: size}, nil
}

// removeBestEffort deletes a stale generation file, logging (not
// propagating) failure: a leftover file never confuses recovery, so a
// permission error or EIO here must not abort an otherwise good open.
func removeBestEffort(fsys fsio.FS, path string) {
	if err := fsys.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "wal: sweeping stale %s: %v (skipped)\n", path, err)
	}
}

// recoverSegment replays the sealed prefix of the log segment at path
// into store, truncates any torn tail, and returns the segment opened
// for appending. A missing segment (or one whose header write was torn)
// is (re)created empty.
func recoverSegment(fsys fsio.FS, path string, store storage.Store) (fsio.File, int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, storage.IOFault("wal-recover", path, err)
	}
	valid := 0
	if err == nil {
		valid, err = replay(data, func(op Op) error { return apply(store, op) })
		if err != nil {
			if errors.Is(err, errNotWAL) {
				return nil, 0, &storage.CorruptError{
					Artifact: "wal-header", Path: path, Offset: 0,
					Detail: "file is not a Glue-Nail write-ahead log",
				}
			}
			return nil, 0, fmt.Errorf("wal: replaying %s: %w", path, err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, storage.IOFault("wal-recover", path, err)
	}
	if valid < len(walMagic) {
		// Fresh segment, or the initial header write itself was torn:
		// start the segment over.
		if err := f.Truncate(0); err == nil {
			_, err = f.Write(walMagic)
		}
		if err != nil {
			_ = f.Close()
			return nil, 0, storage.IOFault("wal-recover", path, err)
		}
		valid = len(walMagic)
	} else if valid < len(data) {
		// Torn or corrupt tail after the last sealed commit.
		if err := f.Truncate(int64(valid)); err != nil {
			_ = f.Close()
			return nil, 0, storage.IOFault("wal-recover", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, 0, storage.IOFault("wal-recover", path, err)
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, 0, storage.IOFault("wal-recover", path, err)
	}
	return f, int64(valid), nil
}

// replay decodes records from data, invoking applyOp for every delta of
// every sealed batch, and returns the offset just past the last valid
// commit record. Deltas after the last commit record, torn records, and
// anything after a corrupt record are excluded. A file shorter than the
// header that is a prefix of it returns valid < len(walMagic), meaning
// the segment must be restarted.
func replay(data []byte, applyOp func(Op) error) (valid int, err error) {
	if len(data) < len(walMagic) {
		if !bytes.Equal(data, walMagic[:len(data)]) {
			return 0, errNotWAL
		}
		return 0, nil
	}
	if !bytes.Equal(data[:len(walMagic)], walMagic) {
		return 0, errNotWAL
	}
	off := len(walMagic)
	valid = off
	var pending []Op
	for off < len(data) {
		kind, payload, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		off += n
		if kind == opCommit {
			for _, op := range pending {
				if err := applyOp(op); err != nil {
					return valid, err
				}
			}
			pending = pending[:0]
			valid = off
			continue
		}
		op, ok := decodeOp(kind, payload)
		if !ok {
			break
		}
		pending = append(pending, op)
	}
	return valid, nil
}

// apply installs one replayed delta into the store.
func apply(st storage.Store, op Op) error {
	switch op.Kind {
	case OpCreate:
		st.Ensure(op.Name, op.Arity)
	case OpClear:
		st.Ensure(op.Name, op.Arity).Clear()
	case OpInsert:
		rel := st.Ensure(op.Name, op.Arity)
		for _, t := range op.Tuples {
			rel.Insert(t)
		}
	case OpDelete:
		rel := st.Ensure(op.Name, op.Arity)
		for _, t := range op.Tuples {
			rel.Delete(t)
		}
	default:
		return fmt.Errorf("replaying op kind %d", op.Kind)
	}
	return nil
}

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, kind OpKind, payload []byte) []byte {
	dst = append(dst, byte(kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write([]byte{byte(kind)})
	crc.Write(payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc.Sum32())
	return append(dst, payload...)
}

// decodeRecord parses the record at the head of b, verifying its
// checksum. n is the record's full framed length.
func decodeRecord(b []byte) (kind OpKind, payload []byte, n int, ok bool) {
	const header = 9 // kind + len + crc
	if len(b) < header {
		return 0, nil, 0, false
	}
	kind = OpKind(b[0])
	plen := binary.LittleEndian.Uint32(b[1:5])
	sum := binary.LittleEndian.Uint32(b[5:9])
	if plen > maxRecordLen || len(b) < header+int(plen) {
		return 0, nil, 0, false
	}
	payload = b[header : header+int(plen)]
	crc := crc32.NewIEEE()
	crc.Write(b[:1])
	crc.Write(payload)
	if crc.Sum32() != sum {
		return 0, nil, 0, false
	}
	return kind, payload, header + int(plen), true
}

// appendOp frames one delta record onto dst.
func appendOp(dst []byte, op Op) []byte {
	var payload []byte
	payload = term.AppendValue(payload, op.Name)
	payload = binary.AppendUvarint(payload, uint64(op.Arity))
	switch op.Kind {
	case OpInsert, OpDelete:
		payload = binary.AppendUvarint(payload, uint64(len(op.Tuples)))
		for _, t := range op.Tuples {
			payload = binary.AppendUvarint(payload, uint64(len(t)))
			for i := range t {
				payload = term.AppendValue(payload, t[i])
			}
		}
	}
	return appendRecord(dst, op.Kind, payload)
}

// decodeOp parses a delta record payload; every byte must be consumed.
func decodeOp(kind OpKind, payload []byte) (Op, bool) {
	if kind < OpInsert || kind > OpClear {
		return Op{}, false
	}
	br := bufio.NewReader(bytes.NewReader(payload))
	name, err := term.ReadValue(br)
	if err != nil {
		return Op{}, false
	}
	arity, err := binary.ReadUvarint(br)
	if err != nil || arity > 255 {
		return Op{}, false
	}
	op := Op{Kind: kind, Name: name, Arity: int(arity)}
	if kind == OpInsert || kind == OpDelete {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > uint64(len(payload)) {
			return Op{}, false
		}
		op.Tuples = make([]term.Tuple, 0, n)
		for i := uint64(0); i < n; i++ {
			t, err := term.ReadTuple(br)
			if err != nil || len(t) != op.Arity {
				return Op{}, false
			}
			op.Tuples = append(op.Tuples, t)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return Op{}, false
	}
	return op, true
}

// Commit appends ops as one atomic batch sealed by a commit record. The
// batch is encoded into a single write call, so a crash mid-write leaves
// an unsealed (and therefore ignored) tail. An empty batch is a no-op.
func (l *Log) Commit(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	buf := l.buf[:0]
	for _, op := range ops {
		if op.Kind < OpInsert || op.Kind > OpClear {
			return fmt.Errorf("wal: committing invalid op kind %d", op.Kind)
		}
		buf = appendOp(buf, op)
	}
	buf = appendRecord(buf, opCommit, nil)
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		return storage.IOFault("wal-commit", walName(l.seq), err)
	}
	l.size += int64(len(buf))
	l.unsyncedBytes += int64(len(buf))
	l.unsyncedCommits++
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncBatch:
		if l.unsyncedBytes >= int64(l.opts.batchBytes()) ||
			l.unsyncedCommits >= l.opts.batchCommits() {
			return l.syncLocked()
		}
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.unsyncedBytes == 0 && l.unsyncedCommits == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return storage.IOFault("wal-sync", walName(l.seq), err)
	}
	l.unsyncedBytes = 0
	l.unsyncedCommits = 0
	return nil
}

// Sync forces all committed records to disk regardless of fsync mode.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	return l.syncLocked()
}

// Size returns the current log segment size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// ShouldCheckpoint reports whether the log has grown past the checkpoint
// threshold.
func (l *Log) ShouldCheckpoint() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.opts.checkpointBytes()
	return t > 0 && l.size >= t
}

// Checkpoint makes the store's state durable outside the log and rotates
// it: snapshot N+1 is made durable first, segment N+1 is created, then
// generation N is removed. A crash at any point leaves a directory Open
// recovers from. The caller must guarantee store is not mutated
// concurrently (statement boundaries satisfy this).
//
// A store that keeps its own durable base (storage.BaseFlusher — the disk
// engine's runs and manifest) flushes that base instead of serializing
// into the snapshot image: the image written is empty, and recovery
// composes by loading the engine's base before replaying the (now empty)
// image plus the log tail on top — storage.Load is additive, so the empty
// image is a no-op and replay is idempotent against the flushed base.
func (l *Log) Checkpoint(store storage.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	snapStore := store
	if bf, ok := store.(storage.BaseFlusher); ok {
		if err := bf.FlushBase(); err != nil {
			return err
		}
		snapStore = storage.NewMemStore(storage.IndexAdaptive)
	}
	next := l.seq + 1
	if err := writeSnapshotFS(l.fsys, filepath.Join(l.dir, snapName(next)), snapStore); err != nil {
		return err
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		return storage.IOFault("checkpoint", l.dir, err)
	}
	npath := filepath.Join(l.dir, walName(next))
	nf, err := l.fsys.OpenFile(npath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return storage.IOFault("checkpoint", npath, err)
	}
	if _, err := nf.Write(walMagic); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		_ = nf.Close()
		return storage.IOFault("checkpoint", npath, err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		_ = nf.Close()
		return storage.IOFault("checkpoint", l.dir, err)
	}
	old, oldSeq := l.f, l.seq
	l.f, l.seq, l.size = nf, next, int64(len(walMagic))
	l.unsyncedBytes, l.unsyncedCommits = 0, 0
	// The retiring segment was synced above and is about to be deleted;
	// a close failure can no longer lose data.
	_ = old.Close()
	removeBestEffort(l.fsys, filepath.Join(l.dir, walName(oldSeq)))
	removeBestEffort(l.fsys, filepath.Join(l.dir, snapName(oldSeq)))
	return nil
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = storage.IOFault("wal-close", walName(l.seq), cerr)
	}
	l.f = nil
	return err
}

// scanDir inventories the durable directory: sorted snapshot and log
// generation numbers, plus paths of leftover temp files.
func scanDir(fsys fsio.FS, dir string) (snaps, wals []uint64, tmps []string, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if len(name) > 4 && name[len(name)-4:] == ".tmp" {
			tmps = append(tmps, filepath.Join(dir, name))
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "snap-%d.gns", &seq); err == nil && name == snapName(seq) {
			snaps = append(snaps, seq)
			continue
		}
		if _, err := fmt.Sscanf(name, "wal-%d.gnw", &seq); err == nil && name == walName(seq) {
			wals = append(wals, seq)
		}
	}
	slices.Sort(snaps)
	slices.Sort(wals)
	return snaps, wals, tmps, nil
}
