package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gluenail/internal/term"
)

// chunkRow is row i of an arity-k test relation: column 0 is i, and
// column c ≥ 1 cycles through 6+c values, so a lookup on column 1 matches
// many rows.
func chunkRow(k, i int) term.Tuple {
	t := make(term.Tuple, k)
	for c := range t {
		v := i
		if c > 0 {
			v = i % (6 + c)
		}
		t[c] = term.NewInt(int64(v))
	}
	return t
}

// pastCap is how many rows fill every doubling chunk of an arity-k
// relation and spill into two capped ones (a zero-arity relation stores
// one row).
func pastCap(k int) int {
	if k == 0 {
		return 1
	}
	return 3<<newRowChunks(k).top + 5
}

// lookupMask is a partial mask on column 1, or the whole row where there
// is no column 1.
func lookupMask(k int) uint32 {
	if k >= 2 {
		return 0b10
	}
	return fullColsMask(k)
}

// checkRows compares the reads of r — Len, Scan, lookups on lookupMask and
// membership — with ref, the live rows in insertion order. (All is
// checked where the test means to lend rows: it changes what Clear keeps.)
func checkRows(t *testing.T, step string, r Rel, ref []term.Tuple) {
	t.Helper()
	if r.Len() != len(ref) {
		t.Fatalf("%s: Len %d, want %d", step, r.Len(), len(ref))
	}
	if got := snapAll(r); !tuplesEqual(got, ref) {
		t.Fatalf("%s: Scan yields %d rows, want the %d reference rows in insertion order", step, len(got), len(ref))
	}
	k, mask := r.Arity(), lookupMask(r.Arity())
	for _, i := range []int{0, 3, 4, 5 << 12} {
		key := chunkRow(k, i)
		if got, want := lookupAll(r, mask, key), snapOracle(ref, mask, key); !tuplesEqual(got, want) {
			t.Fatalf("%s: Lookup(%b, %v) yields %d rows, want %d", step, mask, key, len(got), len(want))
		}
	}
	for _, u := range ref {
		if !r.Contains(u) {
			t.Fatalf("%s: Contains(%v) is false for a live row", step, u)
		}
	}
}

// checkLayout checks that slot i of r holds ref[i], as a view capped at
// the arity, and that no chunk past the first outgrows maxChunkVals.
func checkLayout(t *testing.T, step string, r *Relation, ref []term.Tuple) {
	t.Helper()
	if r.rows.slots != len(ref) {
		t.Fatalf("%s: %d slots, want %d", step, r.rows.slots, len(ref))
	}
	for i, want := range ref {
		if got := r.rows.Row(i); !got.Equal(want) || cap(got) != len(want) {
			t.Fatalf("%s: slot %d holds %v (cap %d), want %v", step, i, got, cap(got), want)
		}
	}
	for c, ch := range r.rows.chunks {
		if c > 0 && len(ch) > maxChunkVals {
			t.Fatalf("%s: chunk %d holds %d values, past the cap of %d", step, c, len(ch), maxChunkVals)
		}
	}
}

// TestRelationChunkBoundaries fills relations of arity 0, 1, 2 and 5,
// with and without a Grow hint, across every doubling chunk and past the
// cap, and checks the slot arithmetic, the stability of row views, the
// stamps allocated on the first delete, and every read after deletes, a
// compaction and Clears against a reference — on the live relation and on
// snapshots captured before and after the first delete.
func TestRelationChunkBoundaries(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5} {
		for _, hint := range []bool{false, true} {
			t.Run(fmt.Sprintf("arity%d/hint=%v", k, hint), func(t *testing.T) {
				s := NewMemStore(IndexAdaptive)
				name := term.NewString("c")
				r := s.ensure(name, k)
				n := pastCap(k)
				if hint {
					r.Grow(n / 3)
					if k > 0 && (len(r.rows.chunks) != 1 || len(r.rows.chunks[0]) != n/3*k) {
						t.Fatalf("Grow(%d) on an empty relation made chunks %d, want one exact chunk", n/3, len(r.rows.chunks))
					}
				}
				var ref, views []term.Tuple
				for i := range n {
					row := chunkRow(k, i)
					u, ok := r.InsertStored(row)
					if !ok {
						t.Fatalf("row %v reported a duplicate", row)
					}
					ref, views = append(ref, row), append(views, u)
				}
				if k > 0 && len(r.rows.chunks) < int(r.rows.top-r.rows.sh)+3 {
					t.Fatalf("%d rows fill %d chunks: the fill never passed the cap", n, len(r.rows.chunks))
				}
				if r.dead != nil {
					t.Fatal("the relation allocated dead stamps before its first delete")
				}
				checkLayout(t, "fill", r, ref)
				for i, u := range views {
					if !u.Equal(ref[i]) || (k > 0 && &u[0] != &r.rows.Row(i)[0]) {
						t.Fatalf("the view of slot %d moved or changed: %v, want %v", i, u, ref[i])
					}
				}
				checkRows(t, "fill", r, ref)
				if got := r.All(); !tuplesEqual(got, ref) {
					t.Fatalf("All returns %d rows, want the %d inserted in order", len(got), len(ref))
				}

				s.AdvanceCSN()
				before := mustSnapRel(t, s.Snapshot(), name, k)
				if before.(*SnapRel).dead != nil {
					t.Fatal("a capture before the first delete holds stamps")
				}
				captured := slices.Clone(ref)
				var kept []term.Tuple
				for j, u := range ref {
					if j%3 == 0 {
						r.Delete(u)
					} else {
						kept = append(kept, u)
					}
				}
				ref = kept
				if len(r.dead) != r.rows.slots {
					t.Fatalf("after the deletes %d stamps for %d slots", len(r.dead), r.rows.slots)
				}
				checkRows(t, "delete", r, ref)
				checkRows(t, "snapshot before the delete", before, captured)
				s.AdvanceCSN()
				after := mustSnapRel(t, s.Snapshot(), name, k)
				checkRows(t, "snapshot after the delete", after, ref)
				capturedAfter := slices.Clone(ref)

				for {
					if len(ref) == 0 { // only a zero-arity relation runs out
						r.Insert(chunkRow(k, 0))
						ref = append(ref, chunkRow(k, 0))
					}
					r.Delete(ref[0])
					ref = ref[1:]
					if r.tombs == 0 {
						break
					}
				}
				if r.dead != nil {
					t.Fatal("compaction kept the stamps of a relation with no dead slot")
				}
				checkLayout(t, "compact", r, ref)
				checkRows(t, "compact", r, ref)
				checkRows(t, "snapshot before the delete, after compact", before, captured)
				for i := n; i < n+n/2; i++ {
					if row := chunkRow(k, i); r.Insert(row) {
						ref = append(ref, row)
					}
				}
				checkLayout(t, "fill after compact", r, ref)
				checkRows(t, "fill after compact", r, ref)

				refill := func(step string, m int) {
					r.Clear()
					checkRows(t, step, r, nil)
					ref = ref[:0]
					if hint {
						r.Grow(m)
					}
					for i := range m {
						if row := chunkRow(k, 7*i); r.Insert(row) {
							ref = append(ref, row)
						}
					}
					checkLayout(t, step, r, ref)
					checkRows(t, step, r, ref)
				}
				refill("clear", n/2) // the fill's All lent its rows: fresh chunks
				var first *term.Value
				if k > 0 {
					first = &r.rows.chunks[0][0]
				}
				refill("clear without All", n/2)
				if k > 0 && &r.rows.chunks[0][0] != first {
					t.Fatal("Clear without a prior All did not refill the same chunks")
				}
				lent := r.All()
				want := make([]term.Tuple, len(lent))
				for i, u := range lent {
					want[i] = slices.Clone(u)
				}
				refill("clear after All", n/2)
				if !tuplesEqual(lent, want) {
					t.Fatal("rows lent by All changed when the relation was cleared and refilled")
				}
				refill("clear to fewer", 10)
				checkRows(t, "snapshot before the delete, after the clears", before, captured)
				checkRows(t, "snapshot after the delete, after the clears", after, capturedAfter)
			})
		}
	}
}

// TestRelationChunkBoundariesBesideSnapshots runs one writer filling a
// relation across its chunk boundaries and past the cap, deleting rows in
// the second half (so its stamps are allocated mid-run), and capturing a
// snapshot every few hundred rows, while readers scan and probe every
// snapshot concurrently: each must keep yielding exactly the rows live
// at its capture. Run it under -race.
func TestRelationChunkBoundariesBesideSnapshots(t *testing.T) {
	const k, readers, every = 2, 2, 700
	n := pastCap(k)
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("w")
	r := s.ensure(name, k)
	type capture struct {
		rel  Rel
		live []term.Tuple
	}
	feeds := make([]chan capture, readers)
	var wg sync.WaitGroup
	for f := range feeds {
		feeds[f] = make(chan capture, n/every+1)
		wg.Add(1)
		go func(feed chan capture) {
			defer wg.Done()
			for c := range feed {
				if got := snapAll(c.rel); !tuplesEqual(got, c.live) {
					t.Errorf("a snapshot scans %d rows, want the %d live at its capture", len(got), len(c.live))
					return
				}
				for _, key := range []term.Tuple{chunkRow(k, 3), chunkRow(k, 5)} {
					if got, want := lookupAll(c.rel, 0b10, key), snapOracle(c.live, 0b10, key); !tuplesEqual(got, want) {
						t.Errorf("a snapshot's Lookup yields %d rows, want %d", len(got), len(want))
						return
					}
				}
			}
		}(feeds[f])
	}
	var live []term.Tuple
	for i := range n {
		row := chunkRow(k, i)
		r.Insert(row)
		live = append(live, row)
		if i > n/2 && i%5 == 0 {
			r.Delete(live[0])
			live = live[1:]
		}
		if i%every == every-1 {
			s.AdvanceCSN()
			c := capture{mustSnapRel(t, s.Snapshot(), name, k), slices.Clone(live)}
			if i < n/2 && c.rel.(*SnapRel).dead != nil {
				t.Error("a capture before the first delete holds stamps")
			}
			for _, feed := range feeds {
				feed <- c
			}
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
	checkRows(t, "live after the run", r, live)
}
