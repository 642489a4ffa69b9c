package disk

import (
	"math"
	"strconv"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// TestRelationIdentityEveryStore pins the catalog's identity rule on all
// four stores (main-memory, its snapshot, disk, its snapshot): two names
// are one relation iff their canonical encodings plus arities are equal.
// Each case first checks that encoding rule itself, so the table cannot
// drift from it.
func TestRelationIdentityEveryStore(t *testing.T) {
	p := term.Intern("p")
	cases := []struct {
		what   string
		a      term.Value
		aArity int
		b      term.Value
		bArity int
		same   bool
	}{
		{"interned vs NewString", p, 1, term.NewString("p"), 1, true},
		{"interned vs NewString inside a compound",
			term.Atom("f", p), 1, term.NewCompound(term.NewString("f"), term.NewString("p")), 1, true},
		{"1 vs 1.0", term.NewInt(1), 1, term.NewFloat(1), 1, false},
		{"compound vs atom", term.Atom("p"), 1, p, 1, false},
		{"NaN vs NaN", term.NewFloat(math.NaN()), 1, term.NewFloat(math.NaN()), 1, true},
		{"NaN inside a compound", term.Atom("f", term.NewFloat(math.NaN())), 1,
			term.Atom("f", term.NewFloat(math.NaN())), 1, true},
		{"-0.0 vs 0.0", term.NewFloat(math.Copysign(0, -1)), 1, term.NewFloat(0), 1, false},
		{"one name at two arities", p, 1, p, 2, false},
	}
	oldKey := func(name term.Value, arity int) string {
		return string(term.AppendValue(nil, name)) + "/" + strconv.Itoa(arity)
	}
	for _, c := range cases {
		if got := oldKey(c.a, c.aArity) == oldKey(c.b, c.bArity); got != c.same {
			t.Fatalf("%s: encodings equal = %v, table says %v", c.what, got, c.same)
		}
		mem := storage.NewMemStore(storage.IndexAdaptive)
		dsk := openTest(t, t.TempDir(), Options{})
		stores := []struct {
			label string
			live  storage.Store
			snap  func() storage.Store
		}{
			{"mem", mem, func() storage.Store { return mem.Snapshot() }},
			{"disk", dsk, func() storage.Store {
				v, err := dsk.SnapshotView()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = v.(*snapStore).Close() })
				return v
			}},
		}
		for _, s := range stores {
			ra := s.live.Ensure(c.a, c.aArity)
			snap := s.snap()
			if _, ok := s.live.Get(c.b, c.bArity); ok != c.same {
				t.Errorf("%s store, %s: Get found = %v, want %v", s.label, c.what, ok, c.same)
			}
			if _, ok := snap.Get(c.b, c.bArity); ok != c.same {
				t.Errorf("%s snapshot, %s: Get found = %v, want %v", s.label, c.what, ok, c.same)
			}
			if rb := s.live.Ensure(c.b, c.bArity); (rb == ra) != c.same {
				t.Errorf("%s store, %s: Ensure returned the same relation = %v, want %v",
					s.label, c.what, rb == ra, c.same)
			}
			want := 2
			if c.same {
				want = 1
			}
			if n := len(s.live.Names()); n != want {
				t.Errorf("%s store, %s: %d relations, want %d", s.label, c.what, n, want)
			}
		}
		if err := dsk.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// catalogAllocs checks that s finds relations without allocating: Get and
// Ensure of an existing relation, each with the interned atom edge/2 and
// with the compound name compound/1, which s must hold, and Get of a
// missing one.
func catalogAllocs(t *testing.T, label string, s storage.Store, compound term.Value) {
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
