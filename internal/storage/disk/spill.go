// Spill stores: out-of-core VM scratch tables are ordinary ephemeral disk
// stores whose flush threshold is the scratch memory budget. A scratch
// relation lives purely in its memtable until it reaches the budget, then
// spills to runs and keeps going — the execution governor charges such
// relations their resident rows (storage.MemResident), so the budget
// becomes the spill trigger instead of an abort.
//
// Each spill store gets a private directory named after the owning
// process, and creating one first sweeps directories left by processes
// that died mid-spill (the crash-recovery convention the WAL uses for its
// temp files, applied to whole scratch directories).
package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
)

var spillSeq atomic.Uint64

// NewScratch creates an ephemeral spill store under parentDir with the
// given scratch row budget as its flush threshold. Stale spill directories
// of dead processes under parentDir are swept first. Close removes the
// store's directory.
func NewScratch(parentDir string, budgetRows int, policy storage.IndexPolicy, stats *storage.Stats) (*Store, error) {
	return NewScratchFS(nil, parentDir, budgetRows, policy, stats)
}

// NewScratchFS is NewScratch over an explicit filesystem (nil selects the
// real one), so fault-injection tests can reach the spill path too.
func NewScratchFS(fsys fsio.FS, parentDir string, budgetRows int, policy storage.IndexPolicy, stats *storage.Stats) (*Store, error) {
	if fsys == nil {
		fsys = fsio.OS
	}
	if err := fsys.MkdirAll(parentDir, 0o755); err != nil {
		return nil, storage.IOFault("spill", parentDir, err)
	}
	sweepStaleSpills(fsys, parentDir)
	dir := filepath.Join(parentDir, fmt.Sprintf("spill-%d-%d", os.Getpid(), spillSeq.Add(1)))
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, storage.IOFault("spill", dir, err)
	}
	return Open(dir, Options{
		FS:        fsys,
		Policy:    policy,
		FlushRows: budgetRows,
		Ephemeral: true,
		Stats:     stats,
		// Scratch caches stay small: the cache itself is resident memory,
		// which is what the budget is bounding.
		CacheBlocks: 128,
		// No background compactor: scratch relations are cleared (and
		// released with their frames) at statement granularity, so runs
		// never live long enough to be worth merging — and a
		// writer-sequenced store needs no cross-thread run retirement.
		NoCompactor: true,
	})
}

// SweepStaleSpills removes spill directories under parentDir whose owning
// process is gone — leftovers of a crash or kill. The live process's own
// directories (and those of any other live process sharing the spill
// root) are left alone. The whole directory is scanned in one batch and
// each pid is probed at most once, however many directories it left
// behind; removal failures (a permission oddity on a shared spill root,
// say) are logged and skipped — a stale directory costs disk space, not
// correctness, and must not fail the session creating a fresh scratch.
func SweepStaleSpills(parentDir string) {
	sweepStaleSpills(fsio.OS, parentDir)
}

func sweepStaleSpills(fsys fsio.FS, parentDir string) {
	entries, err := fsys.ReadDir(parentDir)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "gluenail: disk: spill sweep of %s: %v\n", parentDir, err)
		}
		return
	}
	alive := map[int]bool{os.Getpid(): true}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "spill-") {
			continue
		}
		var pid, seq int
		if _, err := fmt.Sscanf(e.Name(), "spill-%d-%d", &pid, &seq); err != nil {
			continue
		}
		live, probed := alive[pid]
		if !probed {
			live = processAlive(pid)
			alive[pid] = live
		}
		if live {
			continue
		}
		if err := fsys.RemoveAll(filepath.Join(parentDir, e.Name())); err != nil {
			fmt.Fprintf(os.Stderr, "gluenail: disk: removing stale spill %s: %v (skipped)\n", e.Name(), err)
		}
	}
}

// processAlive reports whether a process with the given pid exists (signal
// 0 probe; EPERM still means it exists).
func processAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}

// CheckDirOverlap returns an error when two directories coincide or nest —
// the -data-dir / -spill-dir misconfiguration that would let a spill sweep
// or an orphan sweep eat the other store's files.
func CheckDirOverlap(dataDir, spillDir string) error {
	if dataDir == "" || spillDir == "" {
		return nil
	}
	a, err := filepath.Abs(dataDir)
	if err != nil {
		return err
	}
	b, err := filepath.Abs(spillDir)
	if err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("disk: data directory and spill directory are the same path (%s); give the spill store its own directory (for example %s)", a, a+"-spill")
	}
	if within(a, b) {
		return fmt.Errorf("disk: spill directory %s is inside the data directory %s; recovery's orphan sweep would remove spill files — give the spill store a directory outside the data directory", b, a)
	}
	if within(b, a) {
		return fmt.Errorf("disk: data directory %s is inside the spill directory %s; the stale-spill sweep could remove durable data — give the spill store a directory outside the data directory", a, b)
	}
	return nil
}

// within reports whether path is strictly inside dir.
func within(dir, path string) bool {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return false
	}
	return rel != "." && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}
