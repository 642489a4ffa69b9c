// Hash-first kernels for the executor's tuple-level hot paths. Duplicate
// elimination, aggregation grouping, call-barrier probing, and HiLog head
// grouping used to encode every row into a freshly allocated string map
// key; §10 of the paper observes that evaluation cost "is dominated by the
// cost of the low-level tuple operations", and those key bytes were
// exactly such a cost. The kernels here instead hash registers in place,
// straight from the batch's columns (term.Value.HashInto, with interned
// atoms contributing a precomputed content hash), keep candidates in
// open-addressing tables keyed by the 64-bit hash, and compare the actual
// values on hash collision — no key bytes are ever materialized. Scratch
// tables are pooled per frame, so a repeat loop's iterations reuse one
// allocation.
package vm

import "gluenail/internal/term"

// hashTable is an open-addressing (linear probing) table mapping 64-bit
// entry hashes to caller-defined int32 refs. The table stores refs only;
// the caller owns the entries and supplies an equality predicate on refs,
// so a collision is resolved against the live data it refers to. The
// zero value is ready to use (reset sizes it).
type hashTable struct {
	hashes []uint64
	refs   []int32 // ref+1; 0 marks an empty slot
	mask   int
	used   int
	growAt int
}

// reset prepares the table for about n entries, reusing the backing
// arrays when they are already big enough (the per-frame pool path).
func (t *hashTable) reset(n int) {
	want := 16
	for want*3 < n*4 { // grow at 75% load
		want *= 2
	}
	if len(t.refs) >= want {
		clear(t.refs)
	} else {
		t.hashes = make([]uint64, want)
		t.refs = make([]int32, want)
	}
	t.mask = len(t.refs) - 1
	t.used = 0
	t.growAt = len(t.refs) * 3 / 4
}

// findOrAdd looks up hash h; eq(ref) confirms a same-hash slot really
// holds an equal entry. On a miss the slot records newRef and (newRef,
// false) returns; on a hit the existing ref and true return. eq is only
// invoked on exact 64-bit hash matches.
func (t *hashTable) findOrAdd(h uint64, newRef int32, eq func(int32) bool) (int32, bool) {
	i := int(h) & t.mask
	for {
		r := t.refs[i]
		if r == 0 {
			t.refs[i] = newRef + 1
			t.hashes[i] = h
			t.used++
			if t.used >= t.growAt {
				t.grow()
			}
			return newRef, false
		}
		if t.hashes[i] == h && eq(r-1) {
			return r - 1, true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, reinserting refs by their stored hashes (no eq
// needed: existing entries are distinct by construction).
func (t *hashTable) grow() {
	oldH, oldR := t.hashes, t.refs
	t.hashes = make([]uint64, 2*len(oldH))
	t.refs = make([]int32, 2*len(oldR))
	t.mask = len(t.refs) - 1
	t.growAt = len(t.refs) * 3 / 4
	for j, r := range oldR {
		if r == 0 {
			continue
		}
		h := oldH[j]
		i := int(h) & t.mask
		for t.refs[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.hashes[i] = h
		t.refs[i] = r
	}
}

// find returns the ref of the entry with hash h that eq confirms, or -1.
func (t *hashTable) find(h uint64, eq func(int32) bool) int32 {
	for i := int(h) & t.mask; t.refs[i] != 0; i = (i + 1) & t.mask {
		if t.hashes[i] == h && eq(t.refs[i]-1) {
			return t.refs[i] - 1
		}
	}
	return -1
}

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
func (f *frame) grabTable(n int) *hashTable {
	var t *hashTable
	if k := len(f.scratch); k > 0 {
		t = f.scratch[k-1]
		f.scratch = f.scratch[:k-1]
	} else {
		t = new(hashTable)
	}
	t.reset(n)
	return t
}

func (f *frame) releaseTable(t *hashTable) {
	f.scratch = append(f.scratch, t)
}
