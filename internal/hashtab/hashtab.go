// Package hashtab is the one hash table behind every row set and name set
// of the system (§10's tailored relation manager): relations, disk runs,
// the bulk loader, store catalogs and the executor's scratch. A Table maps
// 64-bit hashes to int32 refs by open addressing with linear probing. The
// caller owns the entries and confirms equality with a predicate on refs,
// invoked only on exact hash matches, so no key is ever built. Deletion
// shifts the rest of a probe run back, leaving no tombstones. The zero
// value allocates nothing until its first add.
package hashtab

import (
	"math/bits"
	"slices"
)

// Table is an open-addressing hash table of int32 refs keyed by 64-bit
// hashes. Finds may run concurrently with each other, not with a writer.
type Table struct {
	hashes []uint64
	refs   []int32 // ref+1; 0 marks an empty slot
	used   int
	shift  uint8 // 64 - log2(len(refs))
}

// minSlots is the smallest backing array: a one-row relation pays 96 bytes.
const minSlots = 8

// home returns the slot a hash starts probing at: Fibonacci hashing takes
// the top bits of the hash times the golden ratio, so FNV's regular low
// bits never cluster a probe run.
func (t *Table) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> t.shift)
}

// Grow makes room for n more entries without another allocation. A table
// keeps its load at or below three quarters.
func (t *Table) Grow(n int) {
	if want := t.used + n; 4*want > 3*len(t.refs) {
		t.resize(want)
	}
}

// resize moves the entries to arrays sized for n, reinserting them by
// their stored hashes (no equality check: they are distinct entries).
func (t *Table) resize(n int) {
	size := minSlots
	for 4*n > 3*size {
		size *= 2
	}
	oldH, oldR := t.hashes, t.refs
	t.hashes, t.refs = make([]uint64, size), make([]int32, size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	if t.used == 0 {
		return
	}
	for j, r := range oldR {
		if r != 0 {
			t.put(oldH[j], r)
		}
	}
}

// put stores ref+1 (r) under h in the first empty slot of its probe run.
func (t *Table) put(h uint64, r int32) {
	mask := len(t.refs) - 1
	i := t.home(h)
	for t.refs[i] != 0 {
		i = (i + 1) & mask
	}
	t.hashes[i], t.refs[i] = h, r
}

// Add records ref under h without looking for an equal entry: the caller
// knows there is none, or keeps equal entries apart on purpose (a disk run
// may hold a dead and a live copy of one tuple).
func (t *Table) Add(h uint64, ref int32) {
	t.Grow(1)
	t.put(h, ref+1)
	t.used++
}

// FindOrAdd looks h up; eq(ref) confirms that a same-hash entry is the one
// sought. On a hit it returns the entry's ref and true; on a miss it adds
// newRef and returns it with false.
func (t *Table) FindOrAdd(h uint64, newRef int32, eq func(int32) bool) (int32, bool) {
	if len(t.refs) > 0 {
		mask := len(t.refs) - 1
		i := t.home(h)
		for ; t.refs[i] != 0; i = (i + 1) & mask {
			if t.hashes[i] == h && eq(t.refs[i]-1) {
				return t.refs[i] - 1, true
			}
		}
		if 4*(t.used+1) <= 3*len(t.refs) {
			t.hashes[i], t.refs[i] = h, newRef+1
			t.used++
			return newRef, false
		}
	}
	t.Add(h, newRef)
	return newRef, false
}

// Find returns the ref of the first entry under h that eq confirms, or -1.
func (t *Table) Find(h uint64, eq func(int32) bool) int32 {
	if t.used == 0 {
		return -1
	}
	mask := len(t.refs) - 1
	for i := t.home(h); t.refs[i] != 0; i = (i + 1) & mask {
		if t.hashes[i] == h && eq(t.refs[i]-1) {
			return t.refs[i] - 1
		}
	}
	return -1
}

// Delete removes the first entry under h that eq confirms and returns its
// ref, or -1 if there is none. The entries after it in its probe run move
// back to close the gap, each only as far as its own home slot allows, so
// every remaining entry stays reachable from its home.
func (t *Table) Delete(h uint64, eq func(int32) bool) int32 {
	if t.used == 0 {
		return -1
	}
	mask := len(t.refs) - 1
	i := t.home(h)
	for ; ; i = (i + 1) & mask {
		if t.refs[i] == 0 {
			return -1
		}
		if t.hashes[i] == h && eq(t.refs[i]-1) {
			break
		}
	}
	ref := t.refs[i] - 1
	t.refs[i] = 0
	t.used--
	for j := (i + 1) & mask; t.refs[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically after i, that is, closer to j than i is.
		if (j-t.home(t.hashes[j]))&mask >= (j-i)&mask {
			t.hashes[i], t.refs[i] = t.hashes[j], t.refs[j]
			t.refs[j] = 0
			i = j
		}
	}
	return ref
}

// Clear removes every entry, keeping the arrays for the next fill.
func (t *Table) Clear() {
	if t.used > 0 {
		clear(t.refs)
		t.used = 0
	}
}

// Clone returns an independent copy of the table.
func (t *Table) Clone() Table {
	return Table{hashes: slices.Clone(t.hashes), refs: slices.Clone(t.refs), used: t.used, shift: t.shift}
}
