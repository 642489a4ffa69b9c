package storage

import (
	"testing"

	"gluenail/internal/term"
)

// TestLayeredFunctionalEquivalence drives both backends through the same
// workload and checks they agree; the layered store only differs in cost.
func TestLayeredFunctionalEquivalence(t *testing.T) {
	mem := NewMemStore(IndexAdaptive)
	lay := NewLayeredStore(IndexAdaptive)
	name := term.NewString("r")
	for _, s := range []Store{mem, lay} {
		r := s.Ensure(name, 2)
		for i := int64(0); i < 30; i++ {
			r.Insert(it(i%5, i))
		}
		r.Delete(it(0, 5))
		r.ModifyByKey(0b01, []term.Tuple{it(2, 777)})
	}
	a, _ := mem.Get(name, 2)
	b, _ := lay.Get(name, 2)
	if a.Len() != b.Len() {
		t.Fatalf("Len mismatch: mem=%d layered=%d", a.Len(), b.Len())
	}
	for _, tp := range a.All() {
		if !b.Contains(tp) {
			t.Errorf("layered missing %v", tp)
		}
	}
	// Lookup parity.
	count := func(r Rel) int {
		n := 0
		r.Lookup(0b01, it(3, 0), func(term.Tuple) bool { n++; return true })
		return n
	}
	if count(a) != count(b) {
		t.Errorf("lookup mismatch: mem=%d layered=%d", count(a), count(b))
	}
}

func TestLayeredChargesOverhead(t *testing.T) {
	lay := NewLayeredStore(IndexAdaptive)
	r := lay.Ensure(term.NewString("tmp"), 1)
	for i := int64(0); i < 10; i++ {
		r.Insert(it(i))
	}
	r.Scan(func(term.Tuple) bool { return true })
	st := lay.Stats()
	if st.LogBytes == 0 {
		t.Error("layered store should write log bytes")
	}
	if st.LatchAcquires == 0 {
		t.Error("layered store should acquire latches")
	}
	if st.CatalogProbes == 0 {
		t.Error("layered store should probe the catalog")
	}
}

func TestLayeredVersionAndClear(t *testing.T) {
	lay := NewLayeredStore(IndexNever)
	r := lay.Ensure(term.NewString("r"), 1)
	v0 := r.Version()
	r.Insert(it(1))
	if r.Version() == v0 {
		t.Error("version should bump through the layered wrapper")
	}
	r.Clear()
	if r.Len() != 0 {
		t.Error("Clear through wrapper failed")
	}
	if r.Name().Str() != "r" || r.Arity() != 1 {
		t.Error("identity accessors wrong")
	}
}

func TestLayeredInsertAndNames(t *testing.T) {
	lay := NewLayeredStore(IndexNever)
	r := lay.Ensure(term.NewString("r"), 1)
	r.Insert(it(1))
	r.Grow(2)
	if r.Insert(it(1)) || !r.Insert(it(2)) {
		t.Error("Insert misreports which rows are new")
	}
	if len(lay.Names()) != 1 {
		t.Errorf("Names = %v", lay.Names())
	}
	if _, ok := lay.Get(term.NewString("nope"), 1); ok {
		t.Error("Get should miss")
	}
	got, ok := lay.Get(term.NewString("r"), 1)
	if !ok || got.Len() != 2 {
		t.Error("Get should return live relation")
	}
}

// TestLayeredCatalogHoldsLiveRelations runs 1 000 frames' worth of
// scratch relations — in, return and three locals each, filled, read and
// released in an order moves could leave — through the layered store: its
// catalog must hold the key of every live relation and of no released
// one.
func TestLayeredCatalogHoldsLiveRelations(t *testing.T) {
	lay := NewLayeredStore(IndexAdaptive)
	keys := func() int {
		lay.mu.Lock()
		defer lay.mu.Unlock()
		return len(lay.catalog)
	}
	for call := 0; call < 1000; call++ {
		rels := make([]Rel, 5)
		for i := range rels {
			rels[i] = lay.New(1 + i%2)
			rels[i].Insert(it(int64(call), int64(i))[:rels[i].Arity()])
			rels[i].Scan(func(term.Tuple) bool { return true })
		}
		if n := keys(); n != len(rels) {
			t.Fatalf("call %d: catalog holds %d keys with %d relations live", call, n, len(rels))
		}
		rels[0], rels[call%5] = rels[call%5], rels[0]
		for _, r := range rels {
			lay.Release(r)
		}
	}
	st := lay.Stats()
	if n := keys(); n != 0 || st.RelsCreated != 5000 || st.RelsDropped != 5000 {
		t.Errorf("catalog holds %d keys with 0 relations live; created=%d released=%d",
			n, st.RelsCreated, st.RelsDropped)
	}
}

// BenchmarkStoreTemporaries measures the paper's E8 claim at the storage
// level: creating, filling, scanning and releasing many short-lived
// temporaries is much cheaper on the tailored backend.
func benchTemporaries(b *testing.B, s Scratch) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := s.New(2)
		for j := int64(0); j < 20; j++ {
			r.Insert(it(j, j*2))
		}
		n := 0
		r.Scan(func(term.Tuple) bool { n++; return true })
		s.Release(r)
	}
}

func BenchmarkMemStoreTemporaries(b *testing.B) {
	benchTemporaries(b, NewMemStore(IndexAdaptive))
}

func BenchmarkLayeredStoreTemporaries(b *testing.B) {
	benchTemporaries(b, NewLayeredStore(IndexAdaptive))
}
