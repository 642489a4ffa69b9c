// Package fsio is the filesystem seam under the persistence stack.
//
// Every file the WAL, the disk engine, and the checkpointer touch is
// opened through an FS and manipulated through its Files, so a test can
// swap the real filesystem for a fault-injecting one (FaultFS) and drive
// EIO, ENOSPC, torn writes, lying fsyncs, and read-time bit rot through
// the exact code paths production runs — the SQLite test-VFS method.
// The default implementation, OS, forwards straight to package os; the
// indirection is two words per call (an interface dispatch) and does not
// show on the E17/E18 profiles.
//
// The package sits below internal/storage on purpose: storage (and its
// engines) import fsio, never the reverse, so the seam carries no policy
// — classification of an injected error into the typed ErrDiskFault /
// ErrCorrupt family happens in the layers above.
package fsio

import (
	"io"
	"os"
)

// File is the per-handle surface the persistence stack uses: positional
// and streaming reads/writes, metadata, durability, and close. It is a
// strict subset of *os.File's method set, so osFile is a trivial wrapper.
type File interface {
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Stat returns the file's metadata.
	Stat() (os.FileInfo, error)
	// Sync flushes the file's data and metadata to stable storage.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the directory-level surface: everything the stack does to the
// filesystem that is not through an open File.
type FS interface {
	// Open opens a file read-only.
	Open(name string) (File, error)
	// OpenFile opens a file with the given flags and mode.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Create creates (or truncates) a file for writing.
	Create(name string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat returns a path's metadata.
	Stat(name string) (os.FileInfo, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// RemoveAll deletes a path and everything under it.
	RemoveAll(path string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// MkdirTemp creates a fresh temporary directory.
	MkdirTemp(dir, pattern string) (string, error)
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// OS is the production filesystem: straight pass-through to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) MkdirTemp(dir, pattern string) (string, error) {
	return os.MkdirTemp(dir, pattern)
}

// SyncDir makes renames within dir durable: metadata operations reach
// the disk only when the directory itself is synced. The close error is
// checked — a directory close failure is as much an I/O error as any.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// WriteAtomic replaces path with the bytes write streams, so that a crash
// leaves either the old file or the whole new one under path: the bytes go
// to path+".tmp", which is fsynced when sync is set, closed, and renamed
// over path. On any failure the temp file is removed. The returned string
// names the file the failing step acted on — the temp file, or path for
// the rename — for the caller's typed error. Making the rename durable
// (SyncDir) is the caller's step.
func WriteAtomic(fsys FS, path string, sync bool, write func(io.Writer) error) (string, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return tmp, err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return tmp, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return path, err
	}
	return "", nil
}

// Bytes adapts a finished file image to WriteAtomic.
func Bytes(p []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}
}
