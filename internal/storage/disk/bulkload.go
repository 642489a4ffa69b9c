// Direct bulk load: large EDB batches build runs straight from the input,
// bypassing both the memtable and the WAL. Writing a row through the
// normal path costs a journal append plus a memtable insert plus its share
// of a flush; the bulk path writes each row exactly once, into a durable
// run, and makes the whole batch durable at the next manifest commit
// (FlushBase) instead of per-statement.
//
// The caller owns the crash-safety fence (see storage.BulkLoader): the WAL
// is checkpointed before the load, so its log is empty and replay can
// never double-apply over the bulk-built base, and FlushBase runs after,
// making the manifest the batch's durability point. A crash in between
// reverts to the pre-statement manifest — the orphaned runs are swept on
// reopen — which preserves the statement-boundary-prefix recovery
// guarantee: the load either happened entirely or not at all.
package disk

import (
	"fmt"
	"sync/atomic"

	"gluenail/internal/hashtab"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

var _ storage.BulkLoader = (*Store)(nil)

// bulkRunRows caps the rows per bulk-built run. Runs this size keep the
// whole-batch encode buffer in the tens of megabytes while still writing
// almost every batch as a single run.
const bulkRunRows = 1 << 20

// BulkLoad implements storage.BulkLoader. Rows are deduplicated (against
// the relation's existing contents — bloom filters make the common miss
// cheap — and within the batch), then written as durable runs of the
// normal flush size, appended in input order so enumeration stays
// byte-identical with the row-at-a-time path.
func (s *Store) BulkLoad(name term.Value, arity int, rows []term.Tuple) (int, error) {
	if err := s.Degraded(); err != nil {
		return 0, err
	}
	r := s.ensure(name, arity, false)
	// Order parity with the row-at-a-time path: rows already sitting in
	// the memtable were inserted earlier, so they must enumerate before
	// the batch. Flushing them to a run first keeps runs-then-memtable
	// order correct once the batch lands in runs of its own.
	if err := r.flush(true); err != nil {
		return 0, s.failWrite(err)
	}
	// The dedup targets are fixed up front: the memtable (just flushed,
	// so normally empty) and the runs that predate the batch. Runs the
	// batch itself builds never need probing — the batch-wide seen index
	// below already covers every row they hold.
	preRuns := *r.runs.Load()
	// The flush left the memtable empty unless it raced a concurrent
	// insert; skip the per-row probe when there is nothing to probe
	// (the common case for a fresh bulk-built relation).
	probeMem := r.mem.Len() > 0
	// In-batch dedup, allocation-free per row: the table every row set
	// uses, sized for the batch up front, maps each accepted row's hash to
	// its place in kept. A plain map[hash]slot measurably dominates the
	// loop's profile at bulk sizes; linear probing over the hashes the
	// loop computes anyway does not.
	kept := make([]term.Tuple, 0, len(rows))
	keptH := make([]uint64, 0, len(rows))
	var seen hashtab.Table
	seen.Grow(len(rows))
	for _, t := range rows {
		if t == nil {
			t = term.Tuple{}
		}
		if len(t) != arity {
			return 0, fmt.Errorf("disk: bulk row arity %d != %d in %v", len(t), arity, name)
		}
		h := t.Hash()
		if seen.Find(h, func(i int32) bool { return kept[i].Equal(t) }) >= 0 ||
			(probeMem && r.mem.Contains(t)) ||
			(len(preRuns) > 0 && r.runsContainIn(preRuns, h, t)) {
			continue
		}
		seen.Add(h, int32(len(kept)))
		kept = append(kept, t)
		keptH = append(keptH, h)
	}
	r.dist.AddBatch(kept)
	// Bulk runs are as large as the batch allows (capped to bound the
	// encode buffer), not flush-sized: the batch is already deduplicated
	// and ordered, so fragmenting it into flush-sized runs would only
	// raise read amplification and hand the compactor a merge it must
	// immediately redo. One big run lands at a higher tier, where fresh
	// flush-sized runs never window with it.
	chunk := bulkRunRows
	if fr := s.opts.flushRows(); chunk < fr {
		chunk = fr
	}
	for lo := 0; lo < len(kept); lo += chunk {
		hi := lo + chunk
		if hi > len(kept) {
			hi = len(kept)
		}
		seq := s.nextRunSeq()
		rn, err := createRun(s, seq, arity, kept[lo:hi], keptH[lo:hi], true)
		if err != nil {
			return lo, s.failWrite(err)
		}
		r.relMu.Lock()
		old := *r.runs.Load()
		nr := make([]*run, len(old)+1)
		copy(nr, old)
		nr[len(old)] = rn
		r.runs.Store(&nr)
		r.diskLive += hi - lo
		r.relMu.Unlock()
		atomic.AddInt64(&s.stats.RunsFlushed, 1)
		atomic.AddInt64(&s.stats.RowsSpilled, int64(hi-lo))
	}
	added := len(kept)
	if added > 0 {
		r.version++
		atomic.AddInt64(&s.stats.Inserts, int64(added))
		atomic.AddInt64(&s.stats.BulkRows, int64(added))
		s.maybeCompact(r, len(*r.runs.Load()))
	}
	return added, nil
}
