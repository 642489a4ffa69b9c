package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"gluenail/internal/hashtab"
	"gluenail/internal/term"
)

// TestHashTableForcedCollisions drives hashtab.Table.FindOrAdd, as the
// kernels here use it, with entries that all share one 64-bit hash: the
// table must fall back to the caller's equality predicate and keep every
// distinct entry while still finding duplicates.
// This is the collision path every hash-first kernel (dedup, grouping,
// call-barrier prefix index, head grouping) relies on; real 64-bit row
// hashes collide too rarely to exercise it end to end.
func TestHashTableForcedCollisions(t *testing.T) {
	const h = uint64(0xdeadbeefcafef00d)
	entries := make([]int, 0, 100)
	var tbl hashtab.Table
	tbl.Grow(4) // force several grows under collision chains
	cand := -1
	eq := func(r int32) bool { return entries[r] == cand }
	for round := 0; round < 2; round++ {
		for v := 0; v < 100; v++ {
			cand = v
			ref, found := tbl.FindOrAdd(h, int32(len(entries)), eq)
			if round == 0 {
				if found {
					t.Fatalf("round 0: entry %d reported as duplicate", v)
				}
				entries = append(entries, v)
			} else {
				if !found {
					t.Fatalf("round 1: entry %d not found again", v)
				}
				if entries[ref] != v {
					t.Fatalf("round 1: entry %d resolved to ref %d (=%d)", v, ref, entries[ref])
				}
			}
		}
	}
	if len(entries) != 100 {
		t.Fatalf("kept %d entries, want 100", len(entries))
	}
}

// TestHashTableMixedHashes checks the same invariants when hashes mostly
// differ but the table is small enough that linear-probe runs interleave
// slots of different hashes: eq must only ever see same-hash candidates.
func TestHashTableMixedHashes(t *testing.T) {
	type entry struct {
		h uint64
		v int
	}
	var entries []entry
	var tbl hashtab.Table
	tbl.Grow(2)
	var cand entry
	eq := func(r int32) bool {
		if entries[r].h != cand.h {
			t.Fatalf("eq called across different hashes: %#x vs %#x", entries[r].h, cand.h)
		}
		return entries[r].v == cand.v
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		// Only 8 distinct hashes over 40 distinct values: plenty of both
		// genuine duplicates and hash-only collisions.
		cand = entry{h: uint64(rng.Intn(8)) * 0x9e3779b97f4a7c15, v: rng.Intn(40)}
		ref, found := tbl.FindOrAdd(cand.h, int32(len(entries)), eq)
		if found {
			if entries[ref] != cand {
				t.Fatalf("lookup of %v returned %v", cand, entries[ref])
			}
		} else {
			entries = append(entries, cand)
		}
	}
	seen := map[entry]bool{}
	for _, e := range entries {
		if seen[e] {
			t.Fatalf("entry %v stored twice", e)
		}
		seen[e] = true
	}
}

// collisionRows builds rows whose live registers collide pairwise under
// truncated comparisons — same string contents in different orders, equal
// strings arriving interned and non-interned, unbound slots — so the
// dedup/group parity tests stress the equality fallback.
func collisionRows(n int, rng *rand.Rand, unbound bool) ([][]term.Value, []int) {
	atoms := []string{"a", "b", "ab", "ba", "", "n001", "n002"}
	rows := make([][]term.Value, n)
	for i := range rows {
		row := make([]term.Value, 3)
		for c := 0; c < 3; c++ {
			switch rng.Intn(4) {
			case 0:
				if !unbound {
					row[c] = term.NewInt(-1)
					continue
				}
				row[c] = term.Value{} // unbound
			case 1:
				row[c] = term.NewInt(int64(rng.Intn(5)))
			case 2:
				row[c] = term.NewString(atoms[rng.Intn(len(atoms))])
			default:
				row[c] = term.Intern(atoms[rng.Intn(len(atoms))])
			}
		}
		rows[i] = row
	}
	return rows, []int{0, 1, 2}
}

// firstSeenGroups is the quadratic reference for dedup and groups: each
// row joins the first earlier group whose first row is pairwise Equal to
// it on the live registers, or opens a new group. Groups come out in
// first-seen order, each listing its row indices in input order.
func firstSeenGroups(rows [][]term.Value, live []int) [][]int {
	var groups [][]int
	for i, row := range rows {
		g := 0
		for ; g < len(groups); g++ {
			first, same := rows[groups[g][0]], true
			for _, r := range live {
				same = same && first[r].Equal(row[r])
			}
			if same {
				break
			}
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// rowsBatch loads rows into a fresh batch the way a segment leaves them:
// one column per register that some row binds.
func rowsBatch(rows [][]term.Value) *batchState {
	b := new(batchScratch).begin(len(rows[0]))
	b.n = len(rows)
	for r := range b.where {
		col, bound := make([]term.Value, len(rows)), false
		for i, row := range rows {
			col[i], bound = row[r], bound || !row[r].IsZero()
		}
		if bound {
			b.levels[0].cols[r], b.where[r] = col, 0
		}
	}
	return b
}

// TestDedupMatchesStringKeyReference runs the hash-first dedup kernel
// against the quadratic reference on random rows mixing interned and
// non-interned atoms and unbound slots: it must keep exactly the first row
// of every reference group, in order. (The name is kept from when the
// reference was the string-key kernel.)
func TestDedupMatchesStringKeyReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rows, live := collisionRows(400, rand.New(rand.NewSource(seed)), true)
		groups := firstSeenGroups(rows, live)
		b := rowsBatch(rows)
		(&frame{m: &Machine{}}).dedup(b, live)
		if b.active() != len(groups) {
			t.Fatalf("seed %d: kept %d rows, reference kept %d", seed, b.active(), len(groups))
		}
		for i, g := range groups {
			if b.row(i) != int32(g[0]) {
				t.Fatalf("seed %d: kept row %d is input row %d, not the first occurrence (input row %d)",
					seed, i, b.row(i), g[0])
			}
		}
	}
}

// TestGroupRowsMatchesStringKeyReference does the same for aggregation
// grouping: identical group partitions in identical first-seen order.
func TestGroupRowsMatchesStringKeyReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rows, regs := collisionRows(400, rand.New(rand.NewSource(seed+100)), false)
		ref := firstSeenGroups(rows, regs)
		gid := make([]int32, len(rows))
		reps := (&frame{m: &Machine{}}).groups(rowsBatch(rows), regs, gid)
		if len(reps) != len(ref) {
			t.Fatalf("seed %d: %d groups, reference %d", seed, len(reps), len(ref))
		}
		for g := range ref {
			if reps[g] != int32(ref[g][0]) {
				t.Fatalf("seed %d: group %d starts at row %d, reference %d", seed, g, reps[g], ref[g][0])
			}
			for _, ri := range ref[g] {
				if gid[ri] != int32(g) {
					t.Fatalf("seed %d: row %d in group %d, reference %d", seed, ri, gid[ri], g)
				}
			}
		}
	}
}

// allocRows builds n rows over two live registers with interned string and
// int columns and a duplicate every 4th row — the dedup/group alloc
// benchmark input.
func allocRows(n int) ([][]term.Value, []int) {
	rows := make([][]term.Value, n)
	for i := range rows {
		if i%4 == 3 {
			rows[i] = rows[i-2]
			continue
		}
		rows[i] = []term.Value{
			term.Intern(fmt.Sprintf("n%03d", i%97)),
			term.NewInt(int64(i % 13)),
		}
	}
	return rows, []int{0, 1}
}

// dedupAllocs measures allocations per dedup of a batch of n rows; each
// run hands the kept selection back so the next starts from all rows.
func dedupAllocs(f *frame, n int) float64 {
	rows, live := allocRows(n)
	b := rowsBatch(rows)
	return testing.AllocsPerRun(20, func() {
		f.dedup(b, live)
		b.scr.putIdx(b.sel)
		b.sel = nil
	})
}

// TestDedupAllocsPerRow pins the allocation behaviour of the dedup kernel:
// it must stay O(1) allocations per call (pooled table and vectors, no
// key bytes).
func TestDedupAllocsPerRow(t *testing.T) {
	const n = 4096
	seq := dedupAllocs(&frame{m: &Machine{}}, n)
	if perRow := seq / n; perRow > 0.01 {
		t.Errorf("hash-first dedup: %.1f allocs/call (%.4f/row), want ≤ 0.01/row", seq, perRow)
	}
}

// TestGroupRowsAllocsPerRow pins aggregation grouping: allocations scale
// at most with the number of groups, not the row count.
func TestGroupRowsAllocsPerRow(t *testing.T) {
	const n = 4096 // 97×13 value combinations → ≤ 1261 groups
	rows, regs := allocRows(n)
	b := rowsBatch(rows)
	gid := make([]int32, n)
	f := &frame{m: &Machine{}}
	got := testing.AllocsPerRun(20, func() {
		b.scr.putIdx(f.groups(b, regs, gid))
	})
	// Budget: one hash slice + the groups slices (< 2 per distinct group
	// amortized).
	if limit := 1300 + 2*1261.0; got > limit {
		t.Errorf("groups: %.1f allocs/call, want ≤ %.0f", got, limit)
	}
}
