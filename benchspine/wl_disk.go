package main

import (
	"fmt"
	"math/rand"
	"time"

	"gluenail"
	"gluenail/internal/term"
)

// diskProgram is the disk_resident schema. Every access to rec/2 binds both
// columns, so it is a point probe through the run's bloom filter, hash
// index and block cache — the engine's disk path — and never the adaptive
// in-memory index a partially bound lookup would build.
const diskProgram = `
edb rec(K, V), grp(G, K, V);

proc has(K, V:)
  return(K, V:) := in(K, V) & rec(K, V).
end

proc span(G: K, V)
  return(G: K, V) := in(G) & grp(G, K, V) & rec(K, V).
end

proc put(K, V:)
  rec(K, V) += in(K, V).
  return(K, V:) := in(K, V).
end

proc drop(K, V:)
  rec(K, V) -= in(K, V).
  return(K, V:) := in(K, V).
end
`

const (
	diskRows        = 400_000
	diskCacheBlocks = 64 // x 256 rows = 16k rows, 4% of the data
	diskCkptBytes   = 64 << 10
	diskGroups      = 512
	diskGroupSize   = 64
	diskHotKeys     = 8192 // the newest keys: 32 blocks, half the cache
	diskLookupKeys  = 8
	diskWriteRows   = 16
	diskVolatile    = 49152 // rows put and not yet dropped: drops trail puts by this much
	diskSegments    = 20    // 100-op segments per window
)

const (
	dkLookup = iota
	dkSpan
	dkPut
	dkDrop
)

// diskResident: the one workload larger than the program's own cache.
type diskResident struct {
	e       *env
	eng     engine
	rng     *rand.Rand
	n       int          // bulk-loaded keys 0..n-1, never deleted
	groups  []int        // group ids present in grp
	live    map[int]bool // volatile keys (>= n) alive now
	dead    map[int]bool // volatile keys dropped
	order   []int        // volatile keys in put order, oldest first
	nextKey int
	ops     []diskOp
	lookups int
	userB   int64
	grpRows int
}

type diskOp struct {
	kind  int
	pairs [][2]int // lookup / put / drop arguments
	group int
	bytes int64 // encoded size of the rows a put or drop writes
	want  rows
	vals  [][]gluenail.Value
	err   error
}

func (w *diskResident) val(k int) int { return int((int64(k)*2654435761 + w.e.seed) % 1000003) }

func (w *diskResident) config() engineConfig {
	return engineConfig{dir: w.e.dir, backend: "disk", cacheBlocks: diskCacheBlocks, ckptBytes: diskCkptBytes, fs: w.e.fs}
}

func (w *diskResident) setup(e *env) error {
	w.e = e
	w.rng = rand.New(rand.NewSource(e.seed))
	w.n = e.size(diskRows)
	if w.n < 4*diskGroupSize {
		w.n = 4 * diskGroupSize
	}
	w.live, w.dead = map[int]bool{}, map[int]bool{}
	w.nextKey = w.n
	eng, err := openEngine(w.config(), e.tr)
	if err != nil {
		return err
	}
	w.eng = eng
	if err := eng.Load(diskProgram); err != nil {
		return err
	}
	recRows := make([][]any, w.n)
	for k := range recRows {
		recRows[k] = []any{k, w.val(k)}
	}
	// Bulk ingest: batches this large take the engine's WAL-bypassing path.
	if err := eng.Assert("rec", recRows...); err != nil {
		return err
	}
	nGroups := diskGroups
	if max := w.n / diskGroupSize; nGroups > max {
		nGroups = max
	}
	var grpRows [][]any
	for _, g := range w.rng.Perm(w.n / diskGroupSize)[:nGroups] {
		w.groups = append(w.groups, g)
		for j := 0; j < diskGroupSize; j++ {
			k := g*diskGroupSize + j
			v := w.val(k)
			if j%8 == 7 {
				v++ // a member whose record does not exist: the semi-join drops it
			}
			grpRows = append(grpRows, []any{g, k, v})
		}
	}
	w.grpRows = len(grpRows)
	if err := eng.Assert("grp", grpRows...); err != nil {
		return err
	}
	// The volatile tail: rows the timed phase will drop, oldest first, while
	// it puts new ones — so flushed runs carry real content and drops leave
	// tombstones in them.
	for len(w.order) < e.size(diskVolatile) {
		var batch [][2]int
		for j := 0; j < 256; j++ {
			k := w.nextKey
			w.nextKey++
			w.live[k] = true
			w.order = append(w.order, k)
			batch = append(batch, [2]int{k, w.val(k)})
		}
		if _, err := eng.Call("main", "put", pairArgs(batch)...); err != nil {
			return err
		}
	}
	if err := warmUp(w); err != nil {
		return err
	}
	return nil
}

// key draws a lookup key: 60% from the newest diskHotKeys bulk keys (which
// fit the block cache), 40% uniform over all of them.
func (w *diskResident) key() int {
	hot := diskHotKeys
	if hot > w.n {
		hot = w.n
	}
	if w.rng.Intn(10) < 6 {
		return w.n - 1 - w.rng.Intn(hot)
	}
	return w.rng.Intn(w.n)
}

func (w *diskResident) plan() {
	w.ops = w.ops[:0]
	mix := []struct{ kind, n int }{{dkLookup, 70}, {dkSpan, 10}, {opAdd, 10}, {opDel, 10}}
	for s := 0; s < diskSegments; s++ {
		for _, kind := range segmentKinds(w.rng, mix) {
			var op diskOp
			switch kind {
			case dkLookup:
				op.kind = dkLookup
				seen := map[int]bool{}
				for len(op.pairs) < diskLookupKeys {
					k := w.key()
					if seen[k] {
						continue
					}
					seen[k] = true
					v := w.val(k)
					if w.rng.Intn(10) < 3 {
						v += 1 + w.rng.Intn(5) // a miss: no such record
					} else {
						op.want = append(op.want, []int64{int64(k), int64(v)})
					}
					op.pairs = append(op.pairs, [2]int{k, v})
				}
				sortRows(op.want)
			case dkSpan:
				op.kind = dkSpan
				op.group = w.groups[w.rng.Intn(len(w.groups))]
				for j := 0; j < diskGroupSize; j++ {
					if j%8 != 7 {
						k := op.group*diskGroupSize + j
						op.want = append(op.want, []int64{int64(op.group), int64(k), int64(w.val(k))})
					}
				}
			case opAdd:
				op.kind = dkPut
				for j := 0; j < diskWriteRows; j++ {
					k := w.nextKey
					w.nextKey++
					w.live[k] = true
					w.order = append(w.order, k)
					op.pairs = append(op.pairs, [2]int{k, w.val(k)})
				}
			case opDel:
				op.kind = dkDrop
				// Drop the oldest volatile keys: they sit in a small flushed
				// run or the memtable, never in the bulk-loaded run.
				for j := 0; j < diskWriteRows && len(w.order) > 0; j++ {
					k := w.order[0]
					w.order = w.order[1:]
					delete(w.live, k)
					w.dead[k] = true
					op.pairs = append(op.pairs, [2]int{k, w.val(k)})
				}
			}
			if op.kind == dkPut || op.kind == dkDrop {
				for _, p := range op.pairs {
					op.want = append(op.want, []int64{int64(p[0]), int64(p[1])})
					op.bytes += int64(term.Tuple{term.NewInt(int64(p[0])), term.NewInt(int64(p[1]))}.EncodedSize())
				}
			}
			w.ops = append(w.ops, op)
		}
	}
}

func pairArgs(pairs [][2]int) [][]any {
	out := make([][]any, len(pairs))
	for i, p := range pairs {
		out[i] = []any{p[0], p[1]}
	}
	return out
}

func (w *diskResident) run(rec *recorder) (int, int) {
	nrows := 0
	for i := range w.ops {
		op := &w.ops[i]
		w.e.opBegin()
		start := time.Now()
		switch op.kind {
		case dkLookup:
			op.vals, op.err = w.eng.Call("main", "has", pairArgs(op.pairs)...)
		case dkSpan:
			op.vals, op.err = w.eng.Call("main", "span", []any{op.group})
		case dkPut:
			op.vals, op.err = w.eng.Call("main", "put", pairArgs(op.pairs)...)
		case dkDrop:
			op.vals, op.err = w.eng.Call("main", "drop", pairArgs(op.pairs)...)
		}
		lat := ms(time.Since(start))
		w.e.opEnd()
		switch op.kind {
		case dkPut, dkDrop:
			rec.writes = append(rec.writes, lat)
			w.userB += op.bytes
		case dkLookup:
			w.lookups += len(op.pairs)
			rec.reads = append(rec.reads, lat)
		default:
			rec.reads = append(rec.reads, lat)
		}
		nrows += len(op.vals)
	}
	return len(w.ops), nrows
}

func (w *diskResident) check(rec *recorder) {
	for i := range w.ops {
		op := &w.ops[i]
		what := fmt.Sprintf("disk op kind %d", op.kind)
		if op.err != nil {
			rec.fail("%s: %v", what, op.err)
			rec.digests = append(rec.digests, 0)
			continue
		}
		checkRows(rec, what, op.vals, op.want)
	}
}

// reopen closes the system and opens it again from disk.
func (w *diskResident) reopen() error {
	if err := w.eng.Close(); err != nil {
		return err
	}
	eng, err := openEngine(w.config(), w.e.tr)
	if err != nil {
		return err
	}
	w.eng = eng
	return eng.Load(diskProgram)
}

// finish closes, reopens from disk and reads back every key the run ever
// put: the live ones must be there, the dropped ones gone.
func (w *diskResident) finish(rec *recorder) {
	if err := w.reopen(); err != nil {
		rec.fail("reopen: %v", err)
		return
	}
	var pairs [][2]int
	var want rows
	flush := func() {
		if len(pairs) == 0 {
			return
		}
		vals, err := w.eng.Call("main", "has", pairArgs(pairs)...)
		if err != nil {
			rec.fail("restart read-back: %v", err)
		} else if got, err := intRows(vals); err != nil {
			rec.fail("restart read-back: %v", err)
		} else {
			sortRows(want)
			if d := diffRows(got, want); d != "" {
				rec.fail("restart read-back: %s", d)
			}
		}
		pairs, want = pairs[:0], want[:0]
	}
	for k := w.n; k < w.nextKey; k++ {
		pairs = append(pairs, [2]int{k, w.val(k)})
		if w.live[k] {
			want = append(want, []int64{int64(k), int64(w.val(k))})
		}
		if len(pairs) == 512 {
			flush()
		}
	}
	flush()
}

func (w *diskResident) liveBytes() int64 {
	// Small integers encode in a few bytes; the product's own encoder is
	// the reference for "encoded bytes of live user tuples".
	var n int64
	add := func(vals ...int) {
		row := make([]any, len(vals))
		for i, v := range vals {
			row[i] = v
		}
		if t, err := toTuple(row); err == nil {
			n += int64(t.EncodedSize())
		}
	}
	for k := 0; k < w.n; k++ {
		add(k, w.val(k))
	}
	for k := range w.live {
		add(k, w.val(k))
	}
	for _, g := range w.groups {
		for j := 0; j < diskGroupSize; j++ {
			add(g, g*diskGroupSize+j, w.val(g*diskGroupSize+j))
		}
	}
	return n
}

func (w *diskResident) spaceAmp() (float64, error) {
	total, err := dirBytes(w.e.dir)
	if err != nil {
		return 0, err
	}
	return ratio(float64(total), float64(w.liveBytes())), nil
}

func (w *diskResident) recoverCycle(i int) (time.Duration, error) {
	k := w.nextKey
	w.nextKey++
	w.live[k] = true
	if _, err := w.eng.Call("main", "put", []any{k, w.val(k)}); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := w.reopen(); err != nil {
		return 0, err
	}
	vals, err := w.eng.Call("main", "has", []any{k, w.val(k)})
	dt := time.Since(start)
	if err != nil {
		return 0, err
	}
	if len(vals) != 1 {
		return 0, fmt.Errorf("first read after reopen: key %d put before the close is missing", k)
	}
	return dt, nil
}

func (w *diskResident) close() error { return w.eng.Close() }

func (w *diskResident) info() map[string]any {
	return map[string]any{
		"clients": 1, "loop": "closed", "store": "disk", "durable": true, "fsync": "batch (product default)",
		"rows": w.n + w.grpRows, "block_cache_blocks": diskCacheBlocks, "block_rows": 256,
		"cache_share_of_data": float64(diskCacheBlocks*256) / float64(w.n),
		"checkpoint_bytes":    diskCkptBytes, "ops_per_window": diskSegments * 100,
		"mix":        "per 100 ops: 70 has() of 8 (K,V) pairs (60% newest keys, 30% misses), 10 span() semi-joins of 64 keys, 10 put() and 10 drop() of 16 rows",
		"op_latency": "op_p50_ms/op_p95_ms are the reads; write latency is the per-layer e2e.write_*",
		"rows_per_s": "rows returned plus rows written per second; bulk ingest is set-up (disk.bulk_rows_per_s)",
	}
}

func (w *diskResident) layers() layerInput {
	sample := make([][]any, 0, 20000)
	for k := 0; k < w.n && k < 20000; k++ {
		sample = append(sample, []any{k, w.val(k)})
	}
	return layerInput{engines: []engine{w.eng}, tuples: anyTuples(sample), sources: []string{diskProgram},
		lookups: w.lookups, userBytes: w.userB}
}
