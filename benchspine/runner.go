package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what the runner hands a workload at set-up.
type env struct {
	seed int64
	// scale shrinks data sizes and block lengths; 1 is the benchmark, the
	// smoke test runs at 1/100.
	scale float64
	// dir is a fresh directory inside the checkout for durable state.
	dir string
	// tr is the tracer of the traced run; nil in the untraced runs.
	tr *tracer
	// fs is the counting filesystem of the traced run; nil otherwise (the
	// untraced runs use the product's default filesystem).
	fs *countFS
	// single is set in both passes of the traced run: one client even on
	// server_mixed, so every span has one possible parent and the two
	// passes execute the same operation sequence.
	single bool
}

func (e *env) size(n int) int {
	s := int(float64(n) * e.scale)
	if s < 1 {
		s = 1
	}
	return s
}

func (e *env) opBegin() {
	if e.tr != nil {
		e.tr.beginOp()
	}
}

func (e *env) opEnd() {
	if e.tr != nil {
		e.tr.endOp()
	}
}

// workload is one named closed-loop workload. The runner drives it in
// blocks: plan generates the next block's operations against the oracle
// (untimed), run executes them timing each one, check compares every
// outcome with what the oracle expected (untimed).
type workload interface {
	setup(e *env) error
	plan()
	run(rec *recorder) (ops, rows int)
	check(rec *recorder)
	// finish runs the end-of-run checks (restart read-back of every
	// acknowledged write on the durable workloads).
	finish(rec *recorder)
	close() error
	// info states the sizes and settings a reader needs beside the numbers.
	info() map[string]any
	// layers returns the system-side counters and probe inputs for the
	// per-layer metrics.
	layers() layerInput
}

var workloads = map[string]func() workload{
	"recursion_deep": func() workload { return &recursionDeep{} },
	"recursion_wide": func() workload { return &recursionWide{} },
	"glue_app":       func() workload { return &glueApp{} },
	"server_mixed":   func() workload { return &serverMixed{} },
	"disk_resident":  func() workload { return &diskResident{} },
	"compile_load":   func() workload { return &compileLoad{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOpts selects one run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string // benchspine/out inside the checkout
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func (o runOpts) newEnv(tag string, tr *tracer, fs *countFS) (*env, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("data-%s-%d-%s", o.workload, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: o.seed, scale: o.scale, dir: dir, tr: tr, fs: fs}, nil
}

// setUp builds the workload setupRepeats times, keeps the last build and
// returns it with the median set-up time.
func (o runOpts) setUp() (workload, *env, time.Duration, error) {
	var times []float64
	var w workload
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, 0, err
			}
			_ = os.RemoveAll(e.dir)
			w = nil
			runtime.GC()
		}
		var err error
		e, err = o.newEnv(fmt.Sprint("s", i), nil, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		w = workloads[o.workload]()
		start := time.Now()
		if err := w.setup(e); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(start)))
	}
	return w, e, time.Duration(median(times)), nil
}

// warmUp runs one block outside any measurement and fails set-up if the
// oracle rejects an answer.
func warmUp(w workload) error {
	warm := &recorder{}
	w.plan()
	w.run(warm)
	w.check(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.firstErr)
	}
	return nil
}

// block runs one plan/run/check cycle and records it as a window.
func block(w workload, rec *recorder) {
	w.plan()
	lo := len(rec.reads)
	before := readCounters()
	start := time.Now()
	ops, nrows := w.run(rec)
	wall := time.Since(start)
	after := readCounters()
	rec.attempted += ops
	rec.windows = append(rec.windows, window{wall: wall, ops: ops, rows: nrows, cost: counters{
		cpu: after.cpu - before.cpu, allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes},
		lo: lo, hi: len(rec.reads)})
	w.check(rec)
}

// runUntraced is the end-to-end run: set up, then run blocks until the
// timed windows add up to the requested seconds.
func runUntraced(o runOpts) (*recorder, map[string]float64, map[string]any, error) {
	w, e, setup, err := o.setUp()
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(e.dir)
	rec := &recorder{}
	budget := time.Duration(o.seconds * float64(time.Second))
	// The untimed oracle work between windows is small; the cap only
	// guards a run against a pathologically slow host.
	deadline := time.Now().Add(3 * budget)
	for rec.measured() < budget && time.Now().Before(deadline) {
		block(w, rec)
	}
	w.finish(rec)
	info := w.info()
	if err := w.close(); err != nil {
		rec.fail("close: %v", err)
	}
	info["samples"] = len(rec.reads)
	info["write_samples"] = len(rec.writes)
	info["windows"] = len(rec.windows)
	info["measured_s"] = rec.measured().Seconds()
	info["setup_repeats"] = setupRepeats
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	return rec, rec.endToEnd(setup), info, nil
}
