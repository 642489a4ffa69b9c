// Adaptive run-time index creation (§10), implemented once for every
// reader: the live Relation, its snapshots, the disk engine's memtables
// (which are Relations) and its run-resident rows.
//
// An index belongs to a slot numbering, not to a reader. Between two
// renumberings a relation only appends, so slot i holds the same row for
// every reader of the numbering. A reader reads slots [0, n) at a
// visibility bound csn — a slot is visible iff its dead stamp is 0 or above
// csn — and the live view is simply the reader at LiveCSN over the current
// length. A SlotIndex over slots [0, k) therefore answers for all of them:
// each reader probes the postings below min(k, n), filters them by its own
// visibility, and scans [k, n) itself. Deleting never edits an index; it
// only stamps.
package storage

import (
	"slices"
	"sync"
	"sync/atomic"

	"gluenail/internal/term"
)

// IndexPolicy controls when a relation builds hash indexes for repeated
// column-subset lookups.
type IndexPolicy uint8

const (
	// IndexAdaptive builds an index on a column subset once the cumulative
	// cost of scanning for that subset reaches the cost of building the
	// index (§10: "an index could be created for a relation after the
	// cumulative cost of selection by scanning the relation reaches the
	// cost of creating the index").
	IndexAdaptive IndexPolicy = iota
	// IndexNever answers every lookup by scanning.
	IndexNever
	// IndexAlways builds an index on the first lookup for a column subset.
	IndexAlways
)

// adaptiveFactor scales the index build-cost estimate: with factor f, an
// index over a relation of n rows is built once roughly f*n rows have been
// scanned on its behalf.
const adaptiveFactor = 2

// LiveCSN is the visibility bound of the live view: only slots never
// stamped dead are visible.
const LiveCSN = ^uint64(0)

// visibleAt reports whether a slot with dead stamp d exists at bound csn.
func visibleAt(d, csn uint64) bool { return d == 0 || d > csn }

// Stamps reads the dead stamp of a slot (0 = live); implementations must be
// safe against a writer stamping concurrently.
type Stamps interface{ Stamp(slot int) uint64 }

// Rows reads the rows of a slot numbering: Row(i) is slot i's row, a view
// into storage that never moves. A relation's chunks and the disk engine's
// run image implement it.
type Rows interface{ Row(i int) term.Tuple }

// deadStamps is a dead-stamp slice read as Stamps, through a pointer to the
// slice header so that passing one stores nothing.
type deadStamps []uint64

func (d *deadStamps) Stamp(i int) uint64 { return atomic.LoadUint64(&(*d)[i]) }

// Indexes holds the adaptive indexes of one slot numbering, one per column
// mask, under one policy. mu guards only the map.
//
// While no snapshot has captured the numbering its single writer owns the
// holder — no reader runs beside a writer — and extends every built index
// in place as rows are appended (extend). Once captured it is immutable:
// readers scan the slots past an index and rebuild it under the credit
// rule instead. (A disk run image's holder is never extended: the rows of
// runs flushed later are such a tail.)
type Indexes struct {
	policy IndexPolicy
	mu     sync.RWMutex
	masks  map[uint32]*maskIndex
}

// NewIndexes returns an empty holder applying policy.
func NewIndexes(policy IndexPolicy) *Indexes { return &Indexes{policy: policy} }

// maskIndex is the state of one column mask: the published index, the scan
// credit every reader of the numbering charges toward an index from slot
// creditLo on, and the flag that admits one builder at a time.
type maskIndex struct {
	ix       atomic.Pointer[SlotIndex]
	credit   atomic.Int64
	creditLo atomic.Int64
	building atomic.Bool
}

// SlotIndex is a hash index over slots [lo, n) of a numbering. Postings
// list every slot, dead ones included — visibility is decided per reader —
// in ascending slot order. One a slot-range read (Ranger) built for a
// semi-naive delta does not grow: the next delta builds its own.
type SlotIndex struct {
	lo, n    int
	grows    bool
	postings map[uint64][]int32
}

// forMask returns the state for mask, creating it on first use.
func (h *Indexes) forMask(mask uint32) *maskIndex {
	h.mu.RLock()
	m := h.masks[mask]
	h.mu.RUnlock()
	if m != nil {
		return m
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if m = h.masks[mask]; m == nil {
		if h.masks == nil {
			h.masks = make(map[uint32]*maskIndex)
		}
		m = new(maskIndex)
		h.masks[mask] = m
	}
	return m
}

// extend appends slot i, holding t, to every built index. Writer-only, and
// only while no snapshot has captured the numbering.
func (h *Indexes) extend(t term.Tuple, i int) {
	for mask, m := range h.masks {
		if ix := m.ix.Load(); ix != nil && ix.grows {
			k := t.HashCols(mask)
			ix.postings[k] = append(ix.postings[k], int32(i))
			ix.n = i + 1
		}
	}
}

// reset drops every index and its credit, for a numbering that starts over
// in place. Writer-only, and only while no snapshot has captured it.
func (h *Indexes) reset() {
	for _, m := range h.masks {
		m.ix.Store(nil)
		m.credit.Store(0)
	}
}

// charge is §10's rule, which every reader applies: it accrues the scan
// rows a lookup from slot lo is about to scan as credit toward an index
// on mask over slots [lo, n) of rows, and builds it once the credit,
// summed over every reader of the numbering, reaches adaptiveFactor times
// that length (IndexAlways: at once; IndexNever never gets here); credit
// toward another lo starts over. One reader builds at a time; the others
// keep scanning. It returns the index to probe.
func (h *Indexes) charge(m *maskIndex, ix *SlotIndex, lo, scan int, grows bool, rows Rows, n int, mask uint32, stats *Stats) *SlotIndex {
	if h.policy == IndexAdaptive {
		if m.creditLo.Swap(int64(lo)) != int64(lo) {
			m.credit.Store(0)
		}
		if m.credit.Add(int64(scan)) < adaptiveFactor*int64(n-lo) {
			return ix
		}
	}
	if !m.building.CompareAndSwap(false, true) {
		return ix
	}
	defer m.building.Store(false)
	if cur := m.ix.Load(); cur != nil && cur.lo <= lo && cur.n >= n {
		return cur // published by a reader that built before us
	}
	built := &SlotIndex{lo: lo, n: n, grows: grows, postings: postings(rows, lo, n, mask)}
	atomic.AddInt64(&stats.IndexBuilds, 1)
	m.ix.Store(built)
	m.credit.Store(0)
	return built
}

// LookupSlots answers a partial-mask lookup over slots [lo, hi) of the
// numbering rows, of n slots, at visibility bound csn, with dead reading
// the slots' stamps — nil when no slot can be dead at csn, which spares a
// probe the stamp reads. h's index on mask answers for the slots it covers
// and the rest are scanned and charged toward (re)building it, from lo to
// n; whole reads build one that grows. Postings are in slot order, so a
// binary search finds lo, and matches come out in insertion order, as
// from a scan. It returns false if yield stopped it.
func LookupSlots(h *Indexes, rows Rows, n, lo, hi int, whole bool, dead Stamps, csn uint64, mask uint32, key term.Tuple, stats *Stats, yield func(term.Tuple) bool) bool {
	var ix *SlotIndex
	from := lo // the first slot no index answers for
	if h.policy != IndexNever {
		m := h.forMask(mask)
		if ix = m.ix.Load(); ix != nil && ix.lo > lo {
			ix = nil // it starts past the range: built for a later delta
		}
		if ix == nil || ix.n < hi {
			if ix != nil {
				from = max(lo, ix.n)
			}
			ix = h.charge(m, ix, lo, hi-from, whole, rows, n, mask, stats)
		}
	}
	if ix != nil {
		from = max(lo, min(ix.n, hi))
		ps := ix.postings[key.HashCols(mask)]
		j, _ := slices.BinarySearch(ps, int32(lo))
		for _, s := range ps[j:] {
			i := int(s)
			if i >= from {
				break
			}
			if t := rows.Row(i); (dead == nil || visibleAt(dead.Stamp(i), csn)) && t.EqualCols(key, mask) {
				atomic.AddInt64(&stats.RowsProbed, 1)
				if !yield(t) {
					return false
				}
			}
		}
	}
	if from == hi {
		return true
	}
	atomic.AddInt64(&stats.RowsScanned, int64(hi-from))
	for i := from; i < hi; i++ {
		if t := rows.Row(i); (dead == nil || visibleAt(dead.Stamp(i), csn)) && t.EqualCols(key, mask) && !yield(t) {
			return false
		}
	}
	return true
}

// postings groups slots [lo, n) of rows by the hash of their mask columns.
// Counting first lets every list be carved out of one slot array, so a
// build allocates a handful of objects rather than one list per key.
func postings(rows Rows, lo, n int, mask uint32) map[uint64][]int32 {
	keys := make([]uint64, n-lo)
	counts := make(map[uint64]int32)
	for i := range keys {
		keys[i] = rows.Row(lo + i).HashCols(mask)
		counts[keys[i]]++
	}
	slots := make([]int32, len(keys))
	out := make(map[uint64][]int32, len(counts))
	off := 0
	for k, c := range counts {
		out[k] = slots[off : off : off+int(c)]
		off += int(c)
	}
	for i, k := range keys {
		out[k] = append(out[k], int32(lo+i))
	}
	return out
}

// scanSlots visits slots [lo, hi) of rows visible at csn in slot order;
// nil stamps leave every slot visible.
func scanSlots(rows *rowChunks, lo, hi int, dead []uint64, csn uint64, stats *Stats, yield func(term.Tuple) bool) {
	atomic.AddInt64(&stats.RowsScanned, int64(hi-lo))
	for i := lo; i < hi; i++ {
		if (dead == nil || visibleAt(atomic.LoadUint64(&dead[i]), csn)) && !yield(rows.Row(i)) {
			return
		}
	}
}

// allSlots returns the n slots of rows visible at csn, in slot order.
func allSlots(rows *rowChunks, dead []uint64, csn uint64, n int) []term.Tuple {
	out := make([]term.Tuple, 0, n)
	for i := range rows.slots {
		if dead == nil || visibleAt(atomic.LoadUint64(&dead[i]), csn) {
			out = append(out, rows.Row(i))
		}
	}
	return out
}
