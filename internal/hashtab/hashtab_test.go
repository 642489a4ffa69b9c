package hashtab

import (
	"math/rand"
	"testing"
)

// tailHashes returns n distinct hashes whose home is the last slot of a
// table of the given size, so their probe runs wrap past the array's end.
func tailHashes(size, n int) []uint64 {
	var t Table
	t.Grow(3 * size / 4)
	if len(t.refs) != size {
		panic("unexpected table size")
	}
	var out []uint64
	for h := uint64(1); len(out) < n; h++ {
		if t.home(h) == size-1 {
			out = append(out, h)
		}
	}
	return out
}

// TestTableMatchesMap runs seeded random Add/FindOrAdd/Find/Delete
// sequences against a Go map. Values hash into a tiny hash space, so many
// distinct refs share one hash and eq must tell them apart; half the hashes
// home on the last slot of the smallest tables, so probe runs wrap past the
// array's end and Delete's backward shift moves entries across it.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := append(tailHashes(8, 3), tailHashes(16, 2)...)
		space = append(space, 0x9e3779b97f4a7c15, 42)
		maxVal := 4 + rng.Intn(60) // small tables for some seeds, growth for others
		hashOf := func(v int) uint64 { return space[v%len(space)] }

		var tab Table
		model := map[int]int32{} // value -> ref
		vals := []int{}          // ref -> value
		var want int
		eq := func(r int32) bool { return vals[r] == want }
		for op := 0; op < 3000; op++ {
			want = rng.Intn(maxVal)
			h := hashOf(want)
			ref, in := model[want]
			switch k := rng.Intn(10); {
			case k < 3: // FindOrAdd
				got, found := tab.FindOrAdd(h, int32(len(vals)), eq)
				if found != in || (in && got != ref) {
					t.Fatalf("seed %d op %d: FindOrAdd(%d) = %d,%v; want %d,%v", seed, op, want, got, found, ref, in)
				}
				if !found {
					model[want] = got
					vals = append(vals, want)
				}
			case k < 4: // Add of a value not held
				if in {
					continue
				}
				tab.Add(h, int32(len(vals)))
				model[want] = int32(len(vals))
				vals = append(vals, want)
			case k < 7: // Find
				got := tab.Find(h, eq)
				if !in {
					ref = -1
				}
				if got != ref {
					t.Fatalf("seed %d op %d: Find(%d) = %d, want %d", seed, op, want, got, ref)
				}
			default: // Delete
				got := tab.Delete(h, eq)
				if !in {
					ref = -1
				}
				if got != ref {
					t.Fatalf("seed %d op %d: Delete(%d) = %d, want %d", seed, op, want, got, ref)
				}
				delete(model, want)
			}
			if tab.used != len(model) {
				t.Fatalf("seed %d op %d: %d entries, want %d", seed, op, tab.used, len(model))
			}
			if op%50 == 0 {
				for v, r := range model {
					want = v
					if got := tab.Find(hashOf(v), eq); got != r {
						t.Fatalf("seed %d op %d: held %d lost (Find %d, want ref %d)", seed, op, v, got, r)
					}
				}
			}
			if op == 1500 {
				tab.Clear()
				clear(model)
			}
		}
	}
}

// TestTableZeroValueAllocatesNothing pins the lazy zero value: reading,
// clearing and deleting from an empty table allocate nothing, and Grow
// sizes it so the adds that follow allocate nothing either.
func TestTableZeroValueAllocatesNothing(t *testing.T) {
	never := func(int32) bool { return true }
	allocs := testing.AllocsPerRun(100, func() {
		var tab Table
		tab.Find(1, never)
		tab.Delete(1, never)
		tab.Clear()
	})
	if allocs != 0 {
		t.Fatalf("empty table allocated %.0f objects", allocs)
	}
	var tab Table
	tab.Grow(1000)
	allocs = testing.AllocsPerRun(1, func() {
		tab.Clear()
		for i := int32(0); i < 1000; i++ {
			tab.Add(uint64(i)*0x51, i)
		}
	})
	if allocs != 0 {
		t.Fatalf("adds into a Grow-sized table allocated %.0f objects", allocs)
	}
}

// TestTableDuplicateEntries checks that Add keeps equal entries apart and
// that Find's predicate picks among them, as a disk run's probe skips a
// dead copy of a tuple for its live one.
func TestTableDuplicateEntries(t *testing.T) {
	var tab Table
	tab.Add(7, 0)
	tab.Add(7, 1)
	dead := map[int32]bool{0: true}
	if got := tab.Find(7, func(r int32) bool { return !dead[r] }); got != 1 {
		t.Fatalf("Find skipping the dead copy = %d, want 1", got)
	}
	if got := tab.Delete(7, func(r int32) bool { return r == 0 }); got != 0 {
		t.Fatalf("Delete of the dead copy = %d, want 0", got)
	}
	if got := tab.Find(7, func(int32) bool { return true }); got != 1 || tab.used != 1 {
		t.Fatalf("after delete: Find %d, %d entries; want 1, 1", got, tab.used)
	}
}
