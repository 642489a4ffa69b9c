package hashtab

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// raceDetector is set in -race builds (race_test.go).
var raceDetector bool

// entries returns how many entries the table holds, over all its pages.
func entries(t *Table) int {
	n := 0
	t.eachPage(func(p *page) { n += int(p.used) })
	return n
}

// mix spreads i over 64 bits (the splitmix64 finalizer), as a row hash
// would.
func mix(i int) uint64 {
	h := uint64(i) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// tailHashes returns n distinct hashes whose home is the last slot of a
// table of the given size, so their probe runs wrap past the array's end.
func tailHashes(size, n int) []uint64 {
	var t Table
	t.Grow(3 * size / 4)
	if len(t.one.slots) != size {
		panic("unexpected table size")
	}
	var out []uint64
	for h := uint64(1); len(out) < n; h++ {
		if t.one.home(tagOf(h)) == size-1 {
			out = append(out, h)
		}
	}
	return out
}

// TestTableMatchesMap runs seeded random Add/FindOrAdd/Find/Delete
// sequences against a Go map. In the small runs values hash into a tiny
// hash space, so many distinct refs share one hash and eq must tell them
// apart; half the hashes home on the last slot of the smallest tables, so
// probe runs wrap past the array's end and Delete's backward shift moves
// entries across it. The large runs hold thousands of distinct hashes,
// enough for several page splits, beside a pile of equal hashes larger
// than a page, which must double its page in place rather than deepen
// the directory.
func TestTableMatchesMap(t *testing.T) {
	small := append(tailHashes(8, 3), tailHashes(16, 2)...)
	small = append(small, 0x9e3779b97f4a7c15, 42)
	for seed := int64(1); seed <= 42; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops, maxVal, adds, every := 3000, 4+rng.Intn(60), 4, 50 // small tables for some seeds, growth for others
		hashOf := func(v int) uint64 { return small[v%len(small)] }
		if seed > 40 {
			const pile = 3200
			ops, maxVal, adds, every = 40000, 8000, 6, 4000
			hashOf = func(v int) uint64 {
				if v < pile {
					return 0x5bd1e995
				}
				return mix(v)
			}
		}

		var tab Table
		model := map[int]int32{} // value -> ref
		vals := []int{}          // ref -> value
		var want int
		paged, doubled := false, false
		eq := func(r int32) bool { return vals[r] == want }
		for op := 0; op < ops; op++ {
			want = rng.Intn(maxVal)
			h := hashOf(want)
			ref, in := model[want]
			switch k := rng.Intn(10); {
			case k < adds-1: // FindOrAdd
				got, found := tab.FindOrAdd(h, int32(len(vals)), eq)
				if found != in || (in && got != ref) {
					t.Fatalf("seed %d op %d: FindOrAdd(%d) = %d,%v; want %d,%v", seed, op, want, got, found, ref, in)
				}
				if !found {
					model[want] = got
					vals = append(vals, want)
				}
			case k < adds: // Add of a value not held
				if in {
					continue
				}
				tab.Add(h, int32(len(vals)))
				model[want] = int32(len(vals))
				vals = append(vals, want)
			case k < adds+3: // Find
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
			if n := entries(&tab); n != len(model) {
				t.Fatalf("seed %d op %d: %d entries, want %d", seed, op, n, len(model))
			}
			paged = paged || tab.dir != nil
			if len(tab.dir) > 16 {
				t.Fatalf("seed %d op %d: directory of %d pages for %d entries", seed, op, len(tab.dir), len(model))
			}
			if op%every == 0 {
				tab.eachPage(func(p *page) { doubled = doubled || len(p.slots) > pageSize })
				for v, r := range model {
					want = v
					if got := tab.Find(hashOf(v), eq); got != r {
						t.Fatalf("seed %d op %d: held %d lost (Find %d, want ref %d)", seed, op, v, got, r)
					}
				}
			}
			if op == ops/2 {
				tab.Clear()
				clear(model)
			}
		}
		if seed > 40 && (!paged || !doubled) {
			t.Fatalf("seed %d: split a page %v, doubled one in place %v; want both", seed, paged, doubled)
		}
	}
}

// TestTableZeroValueAllocatesNothing pins the lazy zero value: reading,
// clearing and deleting from an empty table allocate nothing, and Grow
// sizes it so the adds that follow allocate nothing either, within one
// page and past it.
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
	for _, n := range []int32{1, 6, 7, 1000, 1536, 1537, 20000} {
		var tab Table
		tab.Grow(int(n))
		allocs = testing.AllocsPerRun(1, func() {
			tab.Clear()
			for i := int32(0); i < n; i++ {
				tab.Add(uint64(i)*0x51, i)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d adds into a Grow-sized table allocated %.0f objects", n, allocs)
		}
	}
}

// TestTableClearRefillAllocatesNothing checks that a table grown past one
// page by adds keeps its pages through Clear, so the same fill again, as
// a repeat loop's relations and the executor's scratch refill every
// iteration, allocates nothing.
func TestTableClearRefillAllocatesNothing(t *testing.T) {
	const n = 6000
	var tab Table
	fill := func() {
		for i := 0; i < n; i++ {
			tab.Add(mix(i), int32(i))
		}
	}
	fill()
	if tab.dir == nil {
		t.Fatalf("%d entries fit one page", n)
	}
	if allocs := testing.AllocsPerRun(5, func() { tab.Clear(); fill() }); allocs != 0 {
		t.Fatalf("Clear and refill of %d entries allocated %.0f objects", n, allocs)
	}
}

// TestTableCloneIndependent checks that a clone of a table with pages
// shares none of them: deletes from the original and adds to the clone,
// enough to split further pages, each stay on their own side.
func TestTableCloneIndependent(t *testing.T) {
	const n = 5000
	is := func(i int) func(int32) bool { return func(r int32) bool { return int(r) == i } }
	var tab Table
	for i := 0; i < n; i++ {
		tab.Add(mix(i), int32(i))
	}
	c := tab.Clone()
	for i := 0; i < n; i += 2 {
		tab.Delete(mix(i), is(i))
	}
	for i := n; i < 3*n; i++ {
		c.Add(mix(i), int32(i))
	}
	for i := 0; i < 3*n; i++ {
		wantOrig, wantClone := int32(-1), int32(i)
		if i < n && i%2 == 1 {
			wantOrig = int32(i)
		}
		if got := tab.Find(mix(i), is(i)); got != wantOrig {
			t.Fatalf("original: Find(%d) = %d, want %d", i, got, wantOrig)
		}
		if got := c.Find(mix(i), is(i)); got != wantClone {
			t.Fatalf("clone: Find(%d) = %d, want %d", i, got, wantClone)
		}
	}
}

// TestTableConcurrentFinds runs Finds from several goroutines on one
// table with pages, as snapshot readers probe a shared relation; check.sh
// runs it under -race.
func TestTableConcurrentFinds(t *testing.T) {
	const n, readers = 5000, 4
	var tab Table
	for i := 0; i < n; i++ {
		tab.Add(mix(i), int32(i))
	}
	if tab.dir == nil {
		t.Fatalf("%d entries fit one page", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n+g; i++ {
				j := i % n
				if got := tab.Find(mix(j), func(r int32) bool { return int(r) == j }); got != int32(j) {
					t.Errorf("reader %d: Find(%d) = %d", g, j, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTableGrowthBytes gates the bytes an empty table allocates as 4 096
// entries arrive one Add at a time: the least TotalAlloc of 5 fills.
// Measured 82 080 bytes (Go 1.24, linux/amd64): the doublings up to one
// 2 048-slot array, then page splits that allocate only the new 16 KiB
// page and the directory; bound measured plus 25%. Doubling two arrays,
// an 8-byte hash and a 4-byte ref per slot, all the way measured 196 512.
func TestTableGrowthBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation sizes")
	}
	const n, bound = 4096, 102_600
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	least := ^uint64(0)
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		tab := new(Table)
		for i := 0; i < n; i++ {
			tab.Add(mix(i), int32(i))
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if entries(tab) != n {
			t.Fatalf("table holds %d entries, want %d", entries(tab), n)
		}
	}
	t.Logf("filling a table to %d entries allocates %d bytes (bound %d)", n, least, bound)
	if least > bound {
		t.Errorf("filling a table to %d entries allocates %d bytes, want <= %d", n, least, bound)
	}
}

// blockSink keeps TestBlockSize's blocks on the heap.
var blockSink *block

// TestBlockSize pins a directory page and its slots at one 16 KiB
// allocation, so a split wastes no size-class rounding (the allocator adds
// an 8-byte type header to an object with pointers).
func TestBlockSize(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation sizes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		blockSink = new(block)
	}
	runtime.ReadMemStats(&after)
	if size := (after.TotalAlloc - before.TotalAlloc) / 10; size != 16384 {
		t.Fatalf("a block allocates %d bytes, want 16384", size)
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
	if got := tab.Find(7, func(int32) bool { return true }); got != 1 || entries(&tab) != 1 {
		t.Fatalf("after delete: Find %d, %d entries; want 1, 1", got, entries(&tab))
	}
}
