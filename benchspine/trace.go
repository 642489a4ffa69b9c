package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gluenail/internal/storage/fsio"
)

// span is one timed call across a layer boundary, recorded from this
// package around the layer's public functions.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root (or background work)
	Op     int32  `json:"op"`     // 0 = outside any operation (set-up, background)
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans opened with begin
// nest on a stack owned by the goroutine that drives the workload; leaf
// spans (filesystem calls) may arrive from other goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	opSeq int32 // operations begun so far
	op    int32 // the operation in progress, 0 between operations
	owner int64
	// adoptAll attributes leaf spans from any goroutine to the open span:
	// right when the work is done by a server goroutine on the driving
	// goroutine's behalf (one client, mem store: nothing runs in the
	// background). Otherwise leaves from other goroutines — the disk
	// engine's compactor — are recorded as background work.
	adoptAll bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), owner: goid()}
}

// goid parses the current goroutine's id from its stack header. The
// runtime offers no cheaper way, and the tracer needs it only to keep the
// compactor's I/O out of the foreground operation's span tree.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		id, _ := strconv.ParseInt(string(b[:i]), 10, 64)
		return id
	}
	return -1
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp marks the start of one workload operation; spans recorded until
// endOp share its identifier.
func (t *tracer) beginOp() {
	t.mu.Lock()
	t.opSeq++
	t.op = t.opSeq
	t.mu.Unlock()
}

// endOp marks the operation finished: spans recorded until the next
// beginOp (oracle read-backs, background I/O) belong to no operation.
func (t *tracer) endOp() {
	t.mu.Lock()
	t.op = 0
	t.mu.Unlock()
}

// forgetOps reassigns every span recorded so far to no operation: the
// runner calls it when set-up (which warms up with real operations) ends.
func (t *tracer) forgetOps() {
	t.mu.Lock()
	for i := range t.spans {
		t.spans[i].Op = 0
	}
	t.mu.Unlock()
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	var parent int32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// leaf records a finished span with no children (a filesystem call).
func (t *tracer) leaf(layer, name string, start time.Time, d time.Duration) {
	fg := t.adoptAll || goid() == t.owner
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	var parent, op int32
	if n := len(t.stack); fg && n > 0 {
		parent, op = t.stack[n-1], t.op
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// spanSum is the total time and count of the spans with one name.
type spanSum struct {
	total time.Duration
	n     int
}

func (s spanSum) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return us(s.total) / float64(s.n)
}

// traceSummary is what the per-layer metrics and the share table read.
type traceSummary struct {
	byName    map[string]spanSum       // "layer.name" -> inclusive time inside operations
	byNameAll map[string]spanSum       // the same over every span (set-up, recovery, background)
	self      map[string]time.Duration // layer -> self time inside operations
	opWall    time.Duration            // sum of root-span durations of operations
	ops       int
}

// summarize computes inclusive time per span name and self time per layer:
// a span's self time is its duration minus its children's.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := traceSummary{byName: map[string]spanSum{}, byNameAll: map[string]spanSum{}, self: map[string]time.Duration{}}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	seenOp := map[int32]bool{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		k := s.Layer + "." + s.Name
		e := sum.byNameAll[k]
		e.total += d
		e.n++
		sum.byNameAll[k] = e
		if s.Op == 0 {
			continue
		}
		e = sum.byName[k]
		e.total += d
		e.n++
		sum.byName[k] = e
		sum.self[s.Layer] += d - time.Duration(child[s.ID])
		if s.Parent == 0 {
			sum.opWall += d
			seenOp[s.Op] = true
		}
	}
	sum.ops = len(seenOp)
	return sum
}

// shares returns each layer's self time as a fraction of the operations'
// wall time.
func (s traceSummary) shares() map[string]float64 {
	out := map[string]float64{}
	if s.opWall <= 0 {
		return out
	}
	for layer, d := range s.self {
		out[layer] = float64(d) / float64(s.opWall)
	}
	return out
}

// maxSpansWritten caps the trace file; the summary always covers every
// span.
const maxSpansWritten = 200000

// write stores the spans and their summary as out/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, extra map[string]any) error {
	sum := t.summarize()
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	truncated := false
	if len(spans) > maxSpansWritten {
		spans, truncated = spans[:maxSpansWritten], true
	}
	doc := map[string]any{
		"workload":        workload,
		"seed":            seed,
		"operations":      sum.ops,
		"op_wall_ms":      ms(sum.opWall),
		"layer_share":     sum.shares(),
		"spans_total":     len(t.spans),
		"spans_truncated": truncated,
		"spans":           spans,
	}
	for k, v := range extra {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// ---- counting filesystem ----

// fsCounts totals the device seam's traffic, split by who owns the file.
type fsCounts struct {
	writeCalls, readCalls, syncCalls, renames int64
	writeBytes, readBytes                     int64
	writeTime, readTime, syncTime             time.Duration
	walBytes, walSyncs                        int64
	storeWriteTime                            time.Duration // write+sync+rename under store/
}

// countFS is an fsio.FS over the real filesystem that counts and times
// every call and, when a tracer is attached, records each as a leaf span.
// WAL segments and snapshots are attributed to the wal layer, everything
// else (the disk engine's runs, manifest, intern file) to fsio.
type countFS struct {
	fsio.FS
	tr *tracer
	mu sync.Mutex
	c  fsCounts
}

func newCountFS(tr *tracer) *countFS { return &countFS{FS: fsio.OS, tr: tr} }

func (f *countFS) counts() fsCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

func isWALPath(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, "wal-") || strings.HasPrefix(base, "snap-")
}

func isStorePath(path string) bool {
	return strings.Contains(filepath.ToSlash(path), "/store/")
}

func (f *countFS) note(path, name string, start time.Time, apply func(c *fsCounts, d time.Duration)) {
	d := time.Since(start)
	f.mu.Lock()
	apply(&f.c, d)
	f.mu.Unlock()
	if f.tr != nil {
		layer := "fsio"
		if isWALPath(path) {
			layer = "wal"
		}
		f.tr.leaf(layer, name, start, d)
	}
}

func (f *countFS) wrap(file fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f, wal: isWALPath(file.Name()), store: isStorePath(file.Name())}, nil
}

func (f *countFS) Open(name string) (fsio.File, error)   { return f.wrap(f.FS.Open(name)) }
func (f *countFS) Create(name string) (fsio.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *countFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *countFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.FS.ReadFile(name)
	f.note(name, "read_file", start, func(c *fsCounts, d time.Duration) {
		c.readCalls++
		c.readBytes += int64(len(data))
		c.readTime += d
	})
	return data, err
}

func (f *countFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.note(newpath, "rename", start, func(c *fsCounts, d time.Duration) {
		c.renames++
		if isStorePath(newpath) {
			c.storeWriteTime += d
		}
	})
	return err
}

func (f *countFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.note(dir, "sync_dir", start, func(c *fsCounts, d time.Duration) {
		c.syncCalls++
		c.syncTime += d
	})
	return err
}

type countFile struct {
	fsio.File
	fs         *countFS
	wal, store bool
}

func (f *countFile) wrote(start time.Time, n int) {
	f.fs.note(f.Name(), "write", start, func(c *fsCounts, d time.Duration) {
		c.writeCalls++
		c.writeBytes += int64(n)
		c.writeTime += d
		if f.wal {
			c.walBytes += int64(n)
		}
		if f.store {
			c.storeWriteTime += d
		}
	})
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.wrote(start, n)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wrote(start, n)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.note(f.Name(), "read", start, func(c *fsCounts, d time.Duration) {
		c.readCalls++
		c.readBytes += int64(n)
		c.readTime += d
	})
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.note(f.Name(), "sync", start, func(c *fsCounts, d time.Duration) {
		c.syncCalls++
		c.syncTime += d
		if f.wal {
			c.walSyncs++
		}
		if f.store {
			c.storeWriteTime += d
		}
	})
	return err
}
