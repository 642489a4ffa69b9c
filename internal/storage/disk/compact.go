// Background compaction, size-tiered: runs are bucketed by live row count
// into geometric tiers (base 4), and the compactor merges a contiguous
// window of same-tier runs into one run of the next tier, installed in
// place in the run list. Merging only adjacent same-tier runs — never the
// whole list — bounds both the work per cycle and read amplification (at
// most threshold-1 runs per tier, O(log n) tiers), and keeps large settled
// runs from being rewritten every time small fresh ones accumulate, which
// is what made the old merge-everything policy degrade as stores grew.
//
// Correctness under concurrency rests on the install protocol: the merge
// reads immutable runs lock-free, and the install (under the relation's
// mutation lock) verifies nothing changed — the window's run pointers and
// their tombstone generations — and otherwise discards the merged run and
// retries on the next wake-up. Because the window is replaced in position,
// enumeration order (runs in flush order, then the memtable) is preserved
// exactly; content-preservation is what makes mid-merge readers safe: a
// reader (or snapshot) holding the old run list observes exactly the same
// visible rows in the same order as one holding the new list.
package disk

import (
	"sync/atomic"
)

// runTier buckets a run by live row count: tier t holds runs of roughly
// 4^t rows, so merging a window of tier-t runs yields a tier-(t+1) run.
func runTier(liveRows int) int {
	t := 0
	for liveRows >= 4 {
		liveRows /= 4
		t++
	}
	return t
}

// maybeCompact wakes the compactor when a relation's run count reaches the
// threshold. The goroutine starts lazily on first use, so stores that
// never flush (or are never compacted) cost nothing — and short-lived
// test systems that skip Close leak no goroutine until they actually
// spill.
func (s *Store) maybeCompact(r *Rel, nruns int) {
	if s.opts.NoCompactor || nruns < s.opts.compactAfter() || s.closed.Load() ||
		s.degraded.Load() != nil {
		return
	}
	s.compactStart.Do(func() {
		s.wg.Add(1)
		go s.compactLoop()
	})
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
		}
		for {
			r, lo, hi := s.pickCompactable()
			if r == nil {
				break
			}
			s.compactMu.Lock()
			if s.closed.Load() {
				s.compactMu.Unlock()
				return
			}
			progressed := s.compactOne(r, lo, hi)
			s.compactMu.Unlock()
			if !progressed {
				// Stale install (the writer interleaved): wait for the
				// next flush signal instead of spinning on retries.
				break
			}
		}
	}
}

// pickCompactable scans for a mergeable window: the longest contiguous
// stretch of same-tier runs of at least the wake threshold, preferring the
// lowest tier (fresh small runs merge first, settled large ones rarely).
// Returns the relation and the window bounds [lo, hi), or nil if no
// relation has a qualifying window.
func (s *Store) pickCompactable() (*Rel, int, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	need := s.opts.compactAfter()
	var best *Rel
	bestLo, bestHi, bestTier := 0, 0, 0
	for _, r := range s.rels.Rels() {
		runs := *r.runs.Load()
		if len(runs) < need {
			continue
		}
		lo := 0
		for lo < len(runs) {
			tier := runTier(runs[lo].liveNow())
			hi := lo + 1
			for hi < len(runs) && runTier(runs[hi].liveNow()) == tier {
				hi++
			}
			if hi-lo >= need {
				better := best == nil || tier < bestTier ||
					(tier == bestTier && hi-lo > bestHi-bestLo)
				if better {
					best, bestLo, bestHi, bestTier = r, lo, hi, tier
				}
			}
			lo = hi
		}
	}
	return best, bestLo, bestHi
}

// compactOne merges r's runs [lo, hi) into one, installed in place.
// Committed tombstones are dropped (new snapshots are captured at CSN >=
// their stamp and would filter them anyway; old snapshots pin the old run
// objects); uncommitted ones — a statement in flight deleted the row — are
// carried into the merged run so an abort-free install stays
// content-identical.
func (s *Store) compactOne(r *Rel, lo, hi int) bool {
	runs := *r.runs.Load()
	if hi > len(runs) || hi-lo < 2 {
		return false
	}
	window := runs[lo:hi]
	// Record the tombstone generations the merge is based on; a stamp
	// landing while merging invalidates the result.
	gens := make([]uint64, len(window))
	for i, rn := range window {
		gens[i] = rn.tombGen.Load()
	}
	merged, err := r.mergeRuns(window, s.commitCSN.Load(), false)
	if err != nil {
		// Compaction is advisory: on error, leave the runs as they are —
		// but a disk fault still flips the store to read-only, because the
		// device that failed a merge write will fail a flush next.
		s.setDegraded(err)
		return false
	}
	r.relMu.Lock()
	cur := *r.runs.Load()
	// The window's runs must still sit at the same positions with the same
	// tombstones. Every structural change either replaces the whole list
	// (Clear, Release, checkpoint rewrites — all of which change the window
	// elements) or appends past the end (flush), so unchanged window
	// pointers mean the prefix is intact and an install in place is sound.
	stale := hi > len(cur)
	if !stale {
		for i, rn := range window {
			if cur[lo+i] != rn || rn.tombGen.Load() != gens[i] {
				stale = true
				break
			}
		}
	}
	if stale {
		r.relMu.Unlock()
		if merged != nil {
			_ = s.fsys.Remove(merged.path)
			merged.release()
		}
		return false
	}
	nr := make([]*run, 0, len(cur)-len(window)+1)
	nr = append(nr, cur[:lo]...)
	if merged != nil {
		nr = append(nr, merged)
	}
	nr = append(nr, cur[hi:]...)
	r.runs.Store(&nr)
	r.relMu.Unlock()
	s.retireRuns(window)
	atomic.AddInt64(&s.stats.RunsCompacted, int64(len(window)))
	return true
}
