package storage

import (
	"fmt"
	"testing"

	"gluenail/internal/term"
)

// TestBackendSeamAllocs pins the main-memory engine's hot paths at zero
// allocations per row when reached through the storage.Backend / Rel
// interface seam — the dispatch the VM actually performs. Extracting the
// backend interface must not cost the tailored engine anything: no
// boxing, no per-row temporaries from indirect calls.
func TestBackendSeamAllocs(t *testing.T) {
	var be Backend = NewMemStore(IndexAdaptive)
	rel := be.Ensure(term.Intern("edge"), 2) // interface-typed Rel
	for i := 0; i < 500; i++ {
		rel.Insert(term.Tuple{
			term.Intern(fmt.Sprintf("n%03d", i%100)),
			term.NewInt(int64(i)),
		})
	}
	warmIndex(rel, 1, term.Tuple{term.Intern("n000"), {}})

	var hits int
	yield := func(term.Tuple) bool { hits++; return true }
	fullKey := term.Tuple{term.Intern("n042"), term.NewInt(42)}
	colKey := term.Tuple{term.Intern("n042"), {}}
	full := uint32(3)

	if got := testing.AllocsPerRun(50, func() {
		rel.Lookup(full, fullKey, yield)
	}); got != 0 {
		t.Errorf("whole-tuple Lookup via Rel interface: %.1f allocs/probe, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		rel.Lookup(1, colKey, yield)
	}); got != 0 {
		t.Errorf("indexed Lookup via Rel interface: %.1f allocs/probe, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		rel.Contains(fullKey)
	}); got != 0 {
		t.Errorf("Contains via Rel interface: %.1f allocs/probe, want 0", got)
	}
	// Duplicate elimination: re-inserting an existing row probes the hash
	// chain and rejects without allocating.
	if got := testing.AllocsPerRun(50, func() {
		rel.Insert(fullKey)
	}); got != 0 {
		t.Errorf("dedup Insert via Rel interface: %.1f allocs/row, want 0", got)
	}
	if hits == 0 {
		t.Fatal("probes never matched; nothing was exercised")
	}

	// Finding relations costs nothing either, on the store and on a
	// snapshot of it: the catalog builds no key.
	mem := be.(*MemStore)
	frame := term.Atom("$frame", term.NewInt(7), term.NewString("local"))
	mem.Ensure(frame, 1)
	catalogAllocs(t, "MemStore", mem, frame)
	catalogAllocs(t, "SnapStore", mem.Snapshot(), frame)
}

// catalogAllocs checks that s finds relations without allocating: Get and
// Ensure of an existing relation, each with the interned atom edge/2 and
// with the compound name compound/1, which s must hold, and Get of a
// missing one.
func catalogAllocs(t *testing.T, label string, s Store, compound term.Value) {
	t.Helper()
	missing := term.Atom("$frame", term.NewInt(-1), term.NewString("local"))
	for _, c := range []struct {
		kind  string
		name  term.Value
		arity int
	}{
		{"atom", term.Intern("edge"), 2},
		{"compound", compound, 1},
	} {
		if _, ok := s.Get(c.name, c.arity); !ok {
			t.Fatalf("%s: %v/%d missing", label, c.name, c.arity)
		}
		ops := []struct {
			op string
			fn func()
		}{
			{"Get", func() { s.Get(c.name, c.arity) }},
			{"Ensure of an existing relation", func() { s.Ensure(c.name, c.arity) }},
			{"Get of a missing relation", func() { s.Get(c.name, c.arity+1); s.Get(missing, c.arity) }},
		}
		for _, o := range ops {
			if got := testing.AllocsPerRun(50, o.fn); got != 0 {
				t.Errorf("%s %s, %s name: %.1f allocs, want 0", label, o.op, c.kind, got)
			}
		}
	}
}
