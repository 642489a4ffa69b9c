package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"gluenail/internal/term"
)

// TestCatalogChainsAgainstModel drives a catalog whose keys all fall into
// three hash classes, so every lookup walks a collision chain, through a
// random sequence of adds against a plain slice model: finds, misses and
// creation order must agree with it after every step.
func TestCatalogChainsAgainstModel(t *testing.T) {
	type key struct {
		name  term.Value
		arity int
	}
	hashOf := func(k key) uint64 { return uint64(len(k.name.Str())+k.arity) % 3 }
	rng := rand.New(rand.NewSource(5))
	var c Catalog[int]
	var model []key // creation order
	next := 0
	for step := 0; step < 2000; step++ {
		k := key{term.NewString(fmt.Sprintf("r%d", next)), rng.Intn(3)}
		next++
		if c.find(k.name, k.arity, hashOf(k)) >= 0 {
			t.Fatalf("step %d: %v/%d found before its add", step, k.name, k.arity)
		}
		c.add(k.name, k.arity, hashOf(k), next)
		model = append(model, k)
		if c.Len() != len(model) {
			t.Fatalf("step %d: catalog holds %d, model %d", step, c.Len(), len(model))
		}
		names := c.Names()
		for i, k := range model {
			if j := c.find(k.name, k.arity, hashOf(k)); j != i {
				t.Fatalf("step %d: %v/%d found at %d, want %d", step, k.name, k.arity, j, i)
			}
			if got := names[i]; !got.Name.Identical(k.name) || got.Arity != k.arity {
				t.Fatalf("step %d: Names()[%d] = %v, want %v/%d", step, i, got, k.name, k.arity)
			}
		}
	}
}

// TestNamesInCreationOrder pins Names to creation order on the main-memory
// store and its snapshot, through a placeholder the snapshot adds.
func TestNamesInCreationOrder(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	for _, n := range []string{"c", "a", "d", "b"} {
		s.Ensure(term.Intern(n), 1)
	}
	s.Ensure(term.Intern("a"), 2)
	want := "[c/1 a/1 d/1 b/1 a/2]"
	if got := fmt.Sprint(s.Names()); got != want {
		t.Errorf("MemStore.Names() = %s, want %s", got, want)
	}
	snap := s.Snapshot()
	snap.Ensure(term.Intern("e"), 1)
	if got := fmt.Sprint(snap.Names()); got != "[c/1 a/1 d/1 b/1 a/2 e/1]" {
		t.Errorf("SnapStore.Names() = %s", got)
	}
}
