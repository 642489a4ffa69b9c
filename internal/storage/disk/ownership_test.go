package disk

import (
	"slices"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// Relations own their rows: Insert copies a new row, so a caller may
// rewrite its tuple at once. These tests insert every row from one scratch
// tuple and compare the relation with an oracle on each backend.

// ownershipBackends opens one store per backend: main-memory, layered,
// disk (with a flush threshold small enough that rows reach runs) and a
// spill store.
func ownershipBackends(t *testing.T) map[string]storage.Store {
	t.Helper()
	disk := openTest(t, t.TempDir(), Options{FlushRows: 16, NoCompactor: true})
	spill, err := NewScratch(t.TempDir(), 16, storage.IndexAdaptive, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		disk.Close()
		spill.Close()
	})
	return map[string]storage.Store{
		"mem":     storage.NewMemStore(storage.IndexAdaptive),
		"layered": storage.NewLayeredStore(storage.IndexAdaptive),
		"disk":    disk,
		"spill":   spill,
	}
}

func TestInsertKeepsNoCallerTuple(t *testing.T) {
	for name, st := range ownershipBackends(t) {
		t.Run(name, func(t *testing.T) {
			rel := st.Ensure(term.NewString("p"), 2)
			var want []term.Tuple
			scratch := make(term.Tuple, 2)
			for i := int64(0); i < 50; i++ {
				scratch[0], scratch[1] = term.NewInt(i%20), term.NewInt(i%20*10)
				if rel.Insert(scratch) {
					want = append(want, term.Tuple{scratch[0], scratch[1]})
				}
			}
			scratch[0], scratch[1] = term.NewInt(-1), term.NewInt(-1)
			if len(want) != 20 {
				t.Fatalf("%d rows reported new, want 20", len(want))
			}
			if got := rel.All(); !slices.EqualFunc(got, want, term.Tuple.Equal) {
				t.Fatalf("All = %v, want %v", got, want)
			}
			for _, w := range want {
				if !rel.Contains(w) {
					t.Errorf("Contains(%v) = false", w)
				}
				var hits []term.Tuple
				rel.Lookup(0b01, w, func(u term.Tuple) bool {
					hits = append(hits, u)
					return true
				})
				if len(hits) != 1 || !hits[0].Equal(w) {
					t.Errorf("Lookup(%v) = %v", w[0], hits)
				}
			}
			if rel.Contains(scratch) {
				t.Error("the relation holds the caller's rewritten tuple")
			}
		})
	}
}

// heldJournal keeps every tuple it is handed, as the WAL recorder does
// until commit, together with the values the tuple held when handed.
type heldJournal struct {
	held []term.Tuple
	want []term.Tuple
}

func (j *heldJournal) JournalCreate(term.Value, int) {}
func (j *heldJournal) JournalClear(term.Value, int)  {}
func (j *heldJournal) JournalInsert(_ term.Value, _ int, t term.Tuple) {
	j.held = append(j.held, t)
	j.want = append(j.want, slices.Clone(t))
}
func (j *heldJournal) JournalDelete(_ term.Value, _ int, t term.Tuple) {
	j.held = append(j.held, t)
	j.want = append(j.want, slices.Clone(t))
}

// TestJournaledTuplesSurviveRefill: every journaled tuple still reads as
// journaled after later statements insert from the same scratch tuple,
// delete, and clear and refill the relation — on the disk engine (whose
// memtable the store journals) and the main-memory one.
func TestJournaledTuplesSurviveRefill(t *testing.T) {
	for name, st := range ownershipBackends(t) {
		if name == "layered" || name == "spill" {
			continue // the layered log serializes at once; spill stores are never journaled
		}
		t.Run(name, func(t *testing.T) {
			j := &heldJournal{}
			st.SetJournal(j)
			rel := st.Ensure(term.NewString("q"), 2)
			scratch := make(term.Tuple, 2)
			fill := func(base int64) {
				for i := int64(0); i < 10; i++ {
					scratch[0], scratch[1] = term.NewInt(base+i), term.NewInt(i)
					rel.Insert(scratch)
				}
			}
			fill(0)
			for i := int64(0); i < 10; i += 3 {
				scratch[0], scratch[1] = term.NewInt(i), term.NewInt(i)
				rel.Delete(scratch)
			}
			rel.Clear()
			fill(100)
			rel.Clear()
			fill(200)
			for i := range j.held {
				if !j.held[i].Equal(j.want[i]) {
					t.Fatalf("journal record %d reads %v, was handed %v", i, j.held[i], j.want[i])
				}
			}
		})
	}
}
