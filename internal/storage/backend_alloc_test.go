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
}
