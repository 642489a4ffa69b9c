// Hash-first kernels for the executor's tuple-level hot paths. Duplicate
// elimination, aggregation grouping, call-barrier probing, and HiLog head
// grouping used to encode every row into a freshly allocated string map
// key; §10 of the paper observes that evaluation cost "is dominated by the
// cost of the low-level tuple operations", and those key bytes were
// exactly such a cost. The kernels here instead hash registers in place,
// straight from the batch's columns (term.Value.HashInto, with interned
// atoms contributing a precomputed content hash), keep candidates in a
// hashtab.Table — the one table storage uses for relations and runs too —
// and compare the actual values on a hash match; no key bytes are ever
// materialized. Scratch tables are pooled per frame, so a repeat loop's
// iterations reuse one allocation.
package vm

import (
	"gluenail/internal/hashtab"
	"gluenail/internal/term"
)

// colVal returns row i of a register column; a nil column is a register
// no row binds.
func colVal(col []term.Value, i int32) term.Value {
	if col == nil {
		return term.Value{}
	}
	return col[i]
}

// hashCols folds row i of the columns into a 64-bit hash. An unbound
// register folds its Invalid kind tag, so it can never alias any ground
// value and two rows unbound in the same slots hash equal.
func hashCols(cols [][]term.Value, i int32) uint64 {
	h := term.HashSeed
	for _, c := range cols {
		h = colVal(c, i).HashInto(h)
	}
	return h
}

// equalCols reports whether rows a and b agree on the columns (unbound
// matches only unbound) — the collision check behind every hash table.
func equalCols(cols [][]term.Value, a, b int32) bool {
	for _, c := range cols {
		if c != nil && !c[a].Equal(c[b]) {
			return false
		}
	}
	return true
}

// grabTable takes a scratch table from the frame's pool (or makes one)
// sized for n entries. Frames execute statements sequentially, so the
// pool needs no locking. Return it with releaseTable so the next
// statement — or the next iteration of a repeat loop — reuses the
// backing arrays instead of reallocating.
func (f *frame) grabTable(n int) *hashtab.Table {
	var t *hashtab.Table
	if k := len(f.scratch); k > 0 {
		t = f.scratch[k-1]
		f.scratch = f.scratch[:k-1]
		t.Clear()
	} else {
		t = new(hashtab.Table)
	}
	t.Grow(n)
	return t
}

func (f *frame) releaseTable(t *hashtab.Table) {
	f.scratch = append(f.scratch, t)
}
