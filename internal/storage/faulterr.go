// Typed persistence failures. Two sentinels partition everything that
// can go wrong below the storage API once a process is past "it
// crashed": the environment refusing an operation (ErrDiskFault — EIO,
// ENOSPC, torn writes) and bytes at rest no longer being the bytes that
// were written (ErrCorrupt — failed CRCs, impossible headers). Both join
// the governor's error family: the VM converts a fault surfacing inside
// a procedure into a GovernorError with the sentinel as its limit, and
// the server maps the sentinels to their own wire codes, so a client can
// tell "the query is wrong" from "the disk is failing" without parsing
// message strings.
package storage

import (
	"errors"
	"fmt"
)

var (
	// ErrDiskFault marks an I/O operation the environment failed —
	// write errors, sync errors, rename errors. State already durable is
	// untouched; the failed statement's effects are not durable. A disk
	// engine that trips it on a write path degrades to read-only.
	ErrDiskFault = errors.New("storage: disk I/O fault")
	// ErrCorrupt marks persistent bytes that fail verification — a CRC
	// mismatch, an impossible header, a reference beyond a table. The
	// data is not trusted and never silently returned.
	ErrCorrupt = errors.New("storage: on-disk data corrupt")
)

// FaultError wraps an environment I/O error with the operation and path
// it failed at. errors.Is(err, ErrDiskFault) matches it, and Unwrap
// keeps the underlying error (say syscall.ENOSPC) reachable.
type FaultError struct {
	// Op names the logical operation: "flush", "manifest", "intern",
	// "bulk-load", "wal-commit", "checkpoint", "spill", "compact".
	Op string
	// Path is the file involved, when known.
	Path string
	// Err is the underlying error.
	Err error
}

func (e *FaultError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("disk fault during %s (%s): %v", e.Op, e.Path, e.Err)
	}
	return fmt.Sprintf("disk fault during %s: %v", e.Op, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Is reports the ErrDiskFault sentinel so errors.Is classifies any
// FaultError without losing the wrapped cause.
func (e *FaultError) Is(target error) bool { return target == ErrDiskFault }

// IOFault classifies err as a disk fault at op/path. Errors already in
// the typed family pass through unchanged, so wrapping at every layer
// boundary is safe.
func IOFault(op, path string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrDiskFault) || errors.Is(err, ErrCorrupt) {
		return err
	}
	return &FaultError{Op: op, Path: path, Err: err}
}

// CorruptError reports verification failure of a persistent artifact,
// naming it precisely enough to find the bytes: which artifact class,
// which file, which relation/offset when known. errors.Is(err,
// ErrCorrupt) matches it.
type CorruptError struct {
	// Artifact is the damaged structure: "run-header", "run-block",
	// "run-hash-section", "run-bloom", "run-footer", "run-trailer",
	// "manifest", "intern", "wal-frame", "snapshot", "edb-image".
	Artifact string
	// Path is the damaged file, when known (an EDB image is decoded from a
	// reader).
	Path string
	// Relation names the owning relation, when known.
	Relation string
	// Run is the owning run sequence number, when the artifact is part
	// of a run file.
	Run uint64
	// Offset is the byte offset of the damaged region; -1 if unknown.
	Offset int64
	// Detail says what failed (checksum mismatch, bad magic, ...).
	Detail string
}

func (e *CorruptError) Error() string {
	msg := "corrupt " + e.Artifact
	if e.Path != "" {
		msg += " in " + e.Path
	}
	if e.Relation != "" {
		msg += fmt.Sprintf(" (relation %s)", e.Relation)
	}
	if e.Run != 0 {
		msg += fmt.Sprintf(" (run %d)", e.Run)
	}
	if e.Offset >= 0 {
		msg += fmt.Sprintf(" at offset %d", e.Offset)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }
