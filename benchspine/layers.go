package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
	"gluenail/internal/vm"
)

// layerInput is what a workload hands the traced run for the per-layer
// metrics: the systems whose counters to read, and its own tuples, sources
// and goal texts for the direct probes.
type layerInput struct {
	engines []engine
	closed  sysTotals // counters of engines the workload already closed
	tuples  []term.Tuple
	sources []string
	goals   []string
	wire    *wireCounts // server_mixed only
	// lookups counts the keyed-lookup operations run so far (disk_resident).
	lookups int
	// userBytes is the encoded size of the tuples written by operations so
	// far.
	userBytes int64
	// assertedRows counts rows passed to Assert by operations so far.
	assertedRows int
}

// sysTotals sums the product's own counters over a workload's systems.
type sysTotals struct {
	exec  vm.ExecStats
	store storage.Stats // EDB + scratch
	cache plan.CacheStats
}

// accumulate adds sign*b to t, counter by counter.
func (t *sysTotals) accumulate(b sysTotals, sign int64) {
	for _, f := range []struct{ dst, src *int64 }{
		{&t.exec.StmtsExecuted, &b.exec.StmtsExecuted}, {&t.exec.LoopIterations, &b.exec.LoopIterations},
		{&t.exec.PipelineBreaks, &b.exec.PipelineBreaks}, {&t.exec.TuplesMaterialized, &b.exec.TuplesMaterialized},
		{&t.exec.RowsDeduped, &b.exec.RowsDeduped}, {&t.exec.ProcCalls, &b.exec.ProcCalls},
		{&t.exec.DynDispatches, &b.exec.DynDispatches}, {&t.exec.GovernorChecks, &b.exec.GovernorChecks},
		{&t.store.RowsScanned, &b.store.RowsScanned}, {&t.store.RowsProbed, &b.store.RowsProbed},
		{&t.store.IndexBuilds, &b.store.IndexBuilds}, {&t.store.Inserts, &b.store.Inserts},
		{&t.store.Deletes, &b.store.Deletes}, {&t.store.RelsCreated, &b.store.RelsCreated},
		{&t.store.RunsFlushed, &b.store.RunsFlushed}, {&t.store.RunsCompacted, &b.store.RunsCompacted},
		{&t.store.BlocksRead, &b.store.BlocksRead}, {&t.store.RowsSpilled, &b.store.RowsSpilled},
		{&t.store.CacheHits, &b.store.CacheHits}, {&t.store.BloomChecks, &b.store.BloomChecks},
		{&t.store.BloomSkips, &b.store.BloomSkips}, {&t.store.RunIndexLoads, &b.store.RunIndexLoads},
		{&t.store.BulkRows, &b.store.BulkRows},
		{&t.cache.Hits, &b.cache.Hits}, {&t.cache.Misses, &b.cache.Misses}, {&t.cache.Invalidations, &b.cache.Invalidations},
	} {
		*f.dst += sign * *f.src
	}
}

// add folds one system's counters (EDB and scratch stores together) in.
func (t *sysTotals) add(e engine) {
	st := e.Stats()
	t.accumulate(sysTotals{exec: st.Exec, store: st.EDB, cache: e.PlanCacheStats()}, 1)
	t.accumulate(sysTotals{store: st.Scratch}, 1)
}

func totalsOf(in layerInput) sysTotals {
	t := in.closed
	for _, e := range in.engines {
		t.add(e)
	}
	return t
}

// durable is implemented by the workloads with a data directory.
type durable interface {
	// spaceAmp is bytes in the data directory over encoded bytes of live
	// user tuples, read after finish.
	spaceAmp() (float64, error)
	// recoverCycle writes a little (so the log has a tail), closes, reopens
	// from disk, makes a first read, and returns how long close-to-read
	// took.
	recoverCycle(i int) (time.Duration, error)
}

// traceBlocks is the fixed number of blocks each pass of the traced run
// executes at scale 1 and the default run length: fixed, so that with one
// client the counts repeat exactly from run to run.
var traceBlocks = map[string]int{
	"recursion_deep": 5,
	"recursion_wide": 6,
	"glue_app":       12,
	"server_mixed":   10,
	"disk_resident":  10,
	"compile_load":   5,
}

const recoverCycles = 20

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// runTraced is the per-layer run. It sets up the workload twice from the
// same seed — once on the product's API, untraced, and once on the staged
// pipeline, traced — and runs the same fixed operation sequence on both,
// alternating block by block so both see the same state of the host. The
// two sides' answers must be byte-identical, the wall-time difference is the
// tracing overhead, and the traced side's spans and counter deltas are the
// per-layer metrics.
func runTraced(o runOpts) (*recorder, map[string]float64, map[string]any, error) {
	blocks := int(float64(traceBlocks[o.workload])*o.seconds/10 + 0.5)
	if blocks < 2 {
		blocks = 2
	}
	ea, err := o.newEnv("a", nil, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(ea.dir)
	ea.single = true
	wa := workloads[o.workload]()
	if err := wa.setup(ea); err != nil {
		return nil, nil, nil, fmt.Errorf("set-up (untraced side): %w", err)
	}
	tr := newTracer()
	fs := newCountFS(tr)
	eb, err := o.newEnv("b", tr, fs)
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(eb.dir)
	eb.single = true
	wb := workloads[o.workload]()
	if err := wb.setup(eb); err != nil {
		return nil, nil, nil, fmt.Errorf("set-up (traced side): %w", err)
	}
	tr.forgetOps() // warm-up operations are set-up, not measurements

	in0 := wb.layers()
	t0, fs0 := totalsOf(in0), fs.counts()
	recA, recB := &recorder{}, &recorder{}
	var gcCycles, gcPauseNS, heapPeak uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < blocks; i++ {
		block(wa, recA)
		runtime.ReadMemStats(&m0)
		block(wb, recB)
		runtime.ReadMemStats(&m1)
		gcCycles += uint64(m1.NumGC - m0.NumGC)
		gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		if m1.HeapInuse > heapPeak {
			heapPeak = m1.HeapInuse
		}
	}
	in1 := wb.layers()
	t1, fs1 := totalsOf(in1), fs.counts()

	// Parity: both sides ran the same operations from the same seed.
	if len(recA.digests) != len(recB.digests) {
		recB.fail("parity: the product API produced %d answers, the staged pipeline %d", len(recA.digests), len(recB.digests))
	} else {
		for i := range recA.digests {
			if recA.digests[i] != recB.digests[i] {
				recB.fail("parity: answer %d differs between the product API and the staged pipeline", i)
				break
			}
		}
	}

	// End of run: restart read-back on both sides; space and recovery
	// cycles on the untraced side; a few staged reopen cycles to split
	// recovery into engine open and WAL replay.
	snapshotUS := probeSnapshot(wa.layers().engines)
	wa.finish(recA)
	wb.finish(recB)
	var spaceAmp float64
	var recoverMS []float64
	if d, ok := wa.(durable); ok {
		if spaceAmp, err = d.spaceAmp(); err != nil {
			recA.fail("space_amp: %v", err)
		}
		n := int(float64(recoverCycles)*o.scale + 0.5)
		if n < 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			dt, err := d.recoverCycle(i)
			if err != nil {
				recA.fail("recover cycle %d: %v", i, err)
				break
			}
			recoverMS = append(recoverMS, ms(dt))
		}
		for i := 0; i < 3; i++ {
			if _, err := wb.(durable).recoverCycle(i); err != nil {
				recB.fail("staged recover cycle %d: %v", i, err)
				break
			}
		}
	}

	sum := tr.summarize()
	vals := perLayer(layerFacts{
		sum: sum, d: deltaTotals(t1, t0), fs: deltaFS(fs1, fs0), totAll: t1,
		in0: in0, in1: in1, pr: runProbes(in1), recA: recA, recB: recB,
		gcCycles: float64(gcCycles), gcPauseMS: float64(gcPauseNS) / 1e6,
		heapPeakMB: float64(heapPeak) / (1 << 20), snapshotUS: snapshotUS,
		spaceAmp: spaceAmp, recoverMS: recoverMS,
	})
	info := wb.info()
	info["blocks_per_side"] = blocks
	info["ops_per_side"] = recB.attempted
	shares := sum.shares()
	if in1.wire != nil && sum.opWall > 0 {
		// From outside, what the server does with a request is one wait.
		// The in-process twin's time for the same operations is the part of
		// it that is not wire and session.
		twin := float64(in1.wire.twin) / float64(sum.opWall)
		shares["server"] -= twin
		shares["api+vm (in-process twin)"] = twin
	}
	info["layer_share"] = shares
	info["span_coverage"] = coverage(sum, recB)
	info["recover_cycles"] = len(recoverMS)
	info["write_samples"] = len(recA.writes)
	if err := tr.write(o.outDir, o.workload, o.seed, map[string]any{"info": info, "per_layer": vals}); err != nil {
		return nil, nil, nil, err
	}
	if err := wa.close(); err != nil {
		recA.fail("close: %v", err)
	}
	if err := wb.close(); err != nil {
		recB.fail("close: %v", err)
	}
	rec := &recorder{attempted: recA.attempted + recB.attempted, failed: recA.failed + recB.failed,
		firstErr: recA.firstErr}
	if rec.firstErr == "" {
		rec.firstErr = recB.firstErr
	}
	return rec, vals, info, nil
}

// coverage is the share of the operations' wall time, as the workload
// loop measured it, that the spans' self times add up to.
func coverage(sum traceSummary, rec *recorder) float64 {
	var self time.Duration
	for _, d := range sum.self {
		self += d
	}
	var wall float64
	for _, l := range rec.reads {
		wall += l
	}
	for _, l := range rec.writes {
		wall += l
	}
	if wall == 0 {
		return 0
	}
	return ms(self) / wall
}

func deltaTotals(a, b sysTotals) sysTotals {
	a.accumulate(b, -1)
	return a
}

func deltaFS(a, b fsCounts) fsCounts {
	return fsCounts{
		writeCalls: a.writeCalls - b.writeCalls, readCalls: a.readCalls - b.readCalls,
		syncCalls: a.syncCalls - b.syncCalls, renames: a.renames - b.renames,
		writeBytes: a.writeBytes - b.writeBytes, readBytes: a.readBytes - b.readBytes,
		writeTime: a.writeTime - b.writeTime, readTime: a.readTime - b.readTime, syncTime: a.syncTime - b.syncTime,
		walBytes: a.walBytes - b.walBytes, walSyncs: a.walSyncs - b.walSyncs,
		storeWriteTime: a.storeWriteTime - b.storeWriteTime,
	}
}

// layerFacts gathers everything the per-layer metrics are computed from.
type layerFacts struct {
	sum                                         traceSummary
	d                                           sysTotals // counter deltas over the traced operations
	totAll                                      sysTotals // counters since the systems opened (set-up included)
	fs, fsAll                                   fsCounts
	in0, in1                                    layerInput
	pr                                          probes
	recA, recB                                  *recorder
	gcCycles, gcPauseMS, heapPeakMB, snapshotUS float64
	spaceAmp                                    float64
	recoverMS                                   []float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics. Span-derived numbers cover the
// traced operations only, except where the name says otherwise (bulk
// ingest is set-up work; engine open and WAL replay belong to recovery).
func perLayer(f layerFacts) map[string]float64 {
	op := func(name string) spanSum { return f.sum.byName[name] }
	all := func(name string) spanSum { return f.sum.byNameAll[name] }
	totMS := func(s spanSum) float64 { return ms(s.total) }
	var rowsB, opsB, opsA float64
	var wallA, wallB time.Duration
	for _, w := range f.recB.windows {
		rowsB += float64(w.rows)
		opsB += float64(w.ops)
		wallB += w.wall
	}
	for _, w := range f.recA.windows {
		opsA += float64(w.ops)
		wallA += w.wall
	}
	d, fs := f.d, f.fs
	userBytes := float64(f.in1.userBytes - f.in0.userBytes)
	lookups := float64(f.in1.lookups - f.in0.lookups)
	asserted := float64(f.in1.assertedRows - f.in0.assertedRows)
	vmExec := op("vm.exec")
	apiRoots := 0
	for name, s := range f.sum.byName {
		if strings.HasPrefix(name, "api.") {
			apiRoots += s.n
		}
	}
	bulk := all("disk.bulk_load")
	v := map[string]float64{
		"parser.parse_ms":       totMS(op("parser.parse")),
		"parser.tokens_per_s":   f.pr.tokensPerS,
		"parser.goals_parse_us": f.pr.goalsParseUS,

		"modsys.link_ms": totMS(op("modsys.link")),

		"nail.generate_ms":     f.pr.nailMS,
		"nail.procs_generated": f.pr.nailProcs,
		"nail.stmts_emitted":   f.pr.nailStmts,

		"plan.compile_ms":          totMS(op("plan.compile_all")),
		"plan.compile_query_us":    op("plan.compile_query").meanUS(),
		"plan.ir_stmts":            f.pr.irStmts,
		"plan.cache_hits":          float64(d.cache.Hits),
		"plan.cache_misses":        float64(d.cache.Misses),
		"plan.cache_invalidations": float64(d.cache.Invalidations),
		"plan.cache_hit_ratio":     ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses)),

		"vm.exec_ms":             totMS(vmExec),
		"vm.stmts_executed":      float64(d.exec.StmtsExecuted),
		"vm.loop_iterations":     float64(d.exec.LoopIterations),
		"vm.us_per_iteration":    ratio(us(vmExec.total), float64(d.exec.LoopIterations)),
		"vm.ns_per_derived_row":  ratio(float64(vmExec.total), rowsB),
		"vm.pipeline_breaks":     float64(d.exec.PipelineBreaks),
		"vm.tuples_materialized": float64(d.exec.TuplesMaterialized),
		"vm.rows_deduped":        float64(d.exec.RowsDeduped),
		"vm.proc_calls":          float64(d.exec.ProcCalls),
		"vm.dyn_dispatches":      float64(d.exec.DynDispatches),
		"vm.governor_checks":     float64(d.exec.GovernorChecks),

		"term.hash_ns_per_tuple": f.pr.hashNS,
		"term.intern_ns":         f.pr.internNS,
		"term.encode_mb_per_s":   f.pr.encodeMBs,
		"term.decode_mb_per_s":   f.pr.decodeMBs,

		"storage.rows_scanned":             float64(d.store.RowsScanned),
		"storage.rows_probed":              float64(d.store.RowsProbed),
		"storage.rows_examined_per_result": ratio(float64(d.store.RowsScanned+d.store.RowsProbed), rowsB),
		"storage.index_builds":             float64(d.store.IndexBuilds),
		"storage.inserts":                  float64(d.store.Inserts),
		"storage.deletes":                  float64(d.store.Deletes),
		"storage.rels_created":             float64(d.store.RelsCreated),
		"storage.insert_ns_per_row":        f.pr.insertNS,
		"storage.lookup_ns":                f.pr.lookupNS,
		"storage.contains_ns":              f.pr.containsNS,
		"storage.snapshot_us":              f.pr.snapshotUS,

		"disk.blocks_read":            float64(d.store.BlocksRead),
		"disk.cache_hits":             float64(d.store.CacheHits),
		"disk.cache_hit_ratio":        ratio(float64(d.store.CacheHits), float64(d.store.CacheHits+d.store.BlocksRead)),
		"disk.blocks_read_per_lookup": ratio(float64(d.store.BlocksRead), lookups),
		"disk.bloom_checks":           float64(d.store.BloomChecks),
		"disk.bloom_skips":            float64(d.store.BloomSkips),
		"disk.bloom_skip_ratio":       ratio(float64(d.store.BloomSkips), float64(d.store.BloomChecks)),
		"disk.run_index_loads":        float64(f.totAll.store.RunIndexLoads),
		"disk.runs_flushed":           float64(d.store.RunsFlushed),
		"disk.runs_compacted":         float64(d.store.RunsCompacted),
		"disk.rows_spilled":           float64(d.store.RowsSpilled),
		"disk.bulk_rows":              float64(f.totAll.store.BulkRows),
		"disk.bulk_rows_per_s":        ratio(float64(f.totAll.store.BulkRows), bulk.total.Seconds()),
		"disk.flush_ms":               ms(fs.storeWriteTime),
		"disk.open_ms":                ratio(totMS(all("disk.open")), float64(all("disk.open").n)),

		"fsio.write_calls": float64(fs.writeCalls),
		"fsio.write_bytes": float64(fs.writeBytes),
		"fsio.write_ms":    ms(fs.writeTime),
		"fsio.sync_calls":  float64(fs.syncCalls),
		"fsio.sync_ms":     ms(fs.syncTime),
		"fsio.read_calls":  float64(fs.readCalls),
		"fsio.read_bytes":  float64(fs.readBytes),
		"fsio.read_ms":     ms(fs.readTime),
		"fsio.renames":     float64(fs.renames),
		"fsio.write_amp":   ratio(float64(fs.writeBytes), userBytes),

		"wal.append_bytes":        float64(fs.walBytes),
		"wal.bytes_per_user_byte": ratio(float64(fs.walBytes), userBytes),
		"wal.sync_calls":          float64(fs.walSyncs),
		"wal.commit_us":           op("wal.commit").meanUS(),
		"wal.checkpoints":         float64(op("wal.checkpoint").n),
		"wal.checkpoint_ms":       totMS(op("wal.checkpoint")),
		"wal.replay_ms":           ratio(totMS(all("wal.replay")), float64(all("wal.replay").n)),

		"api.prepare_us":        all("api.prepare").meanUS(),
		"api.execute_us":        op("api.execute").meanUS(),
		"api.overhead_us":       ratio(us(f.sum.self["api"]), float64(apiRoots)),
		"api.query_adhoc_us":    op("api.query").meanUS(),
		"api.assert_us_per_row": ratio(us(op("api.assert").total), asserted),
		"api.snapshot_us":       f.snapshotUS,

		"rt.gc_cycles":        f.gcCycles,
		"rt.gc_pause_ms":      f.gcPauseMS,
		"rt.heap_peak_mb":     f.heapPeakMB,
		"trace.overhead_frac": ratio(float64(wallB)/opsB, float64(wallA)/opsA) - 1,

		"e2e.write_p50_ms":   quantile(f.recA.writes, 0.50),
		"e2e.write_p95_ms":   quantile(f.recA.writes, 0.95),
		"e2e.space_amp":      f.spaceAmp,
		"e2e.recover_p50_ms": median(f.recoverMS),
	}
	wire := wireCounts{}
	if f.in1.wire != nil {
		wire = *f.in1.wire
	}
	for k, x := range wire.metrics(f.sum.self["wal"]) {
		v[k] = x
	}
	if f.in1.wire != nil {
		// The server's Assert runs inside its process, where no span
		// reaches; the twin's is the same call made where it can be timed.
		v["api.assert_us_per_row"] = ratio(us(wire.twinAssert), float64(wire.asserted))
	}
	return v
}
