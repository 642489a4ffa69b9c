package vm

import (
	"testing"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// TestPlanCacheClassSigGeometricBumps checks the key the executor folds for
// a statement's inputs on the main-memory store: it changes each time a
// relation crosses a power of two (so a relation growing to n rows re-plans
// O(log n) times), stays put across churn inside a class and across a repeat
// loop's clear-and-refill at one size, and tells an absent relation from an
// empty one.
func TestPlanCacheClassSigGeometricBumps(t *testing.T) {
	checkClassSig(t, storage.NewMemStore(storage.IndexAdaptive))
}

// TestPlanCacheClassSigLayered runs the same checks on the layered baseline.
func TestPlanCacheClassSigLayered(t *testing.T) {
	checkClassSig(t, storage.NewLayeredStore(storage.IndexAdaptive))
}

func checkClassSig(t *testing.T, store storage.Store) {
	t.Helper()
	row := func(i int) term.Tuple { return term.Tuple{term.NewInt(int64(i))} }
	f := &frame{m: &Machine{EDB: store}}
	name := term.Intern("r")
	refs := []plan.RelRef{{Space: plan.SpaceEDB, Name: term.Ground(name), Arity: 1}}
	absent := f.classSig(refs)
	rel := store.Ensure(name, 1)
	empty := f.classSig(refs)
	if empty == absent {
		t.Error("an empty relation keys like an absent one")
	}

	seen := map[uint64]bool{empty: true}
	for i := 0; i < 1000; i++ {
		rel.Insert(row(i))
		seen[f.classSig(refs)] = true
	}
	if len(seen) != 11 { // bits.Len of 0, 1, 2..3, ..., 512..1000
		t.Errorf("growing 0 -> 1000 rows produced %d keys, want 11", len(seen))
	}
	grown := f.classSig(refs)

	for i := 0; i < 20; i++ {
		rel.Insert(row(2000 + i))
		rel.Delete(row(2000 + i))
	}
	if f.classSig(refs) != grown {
		t.Error("churn inside a class changed the key")
	}

	rel.Clear()
	if f.classSig(refs) != empty {
		t.Error("a cleared relation does not key as empty")
	}
	for i := 0; i < 1000; i++ {
		rel.Insert(row(5000 + i))
	}
	if f.classSig(refs) != grown {
		t.Error("clear and refill to the same size changed the key")
	}

	for i := 0; i < 600; i++ {
		rel.Delete(row(5000 + i))
	}
	if f.classSig(refs) == grown {
		t.Error("shrinking 1000 -> 400 rows kept the key")
	}
}
