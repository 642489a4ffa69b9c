package gluenail

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Kernel-parity differential tests: the vectorized batch kernels (on by
// default), the scalar tuple-at-a-time kernels behind WithBatchKernels
// (false), the hash-first kernels (interned atoms, cached row hashes,
// open-addressing dedup/group/probe tables), and the legacy string-key
// kernels retained behind WithStringKeyKernels must produce byte-identical
// results on every program.

// TestHiLogDispatchKernelParity is the regression test for the cached head
// dispatch key: a dispatch-heavy HiLog program — computed head names
// creating one relation per department, predicate-variable reads
// dispatching back into them, and a set-valued catalog — must resolve the
// same relations and rows under both kernel families.
func TestHiLogDispatchKernelParity(t *testing.T) {
	const program = `
edb emp(Dept, Name), dept_set(Dept, S);
headcount(D, N) :- dept_set(D, S) & S(E) & group_by(D, S) & N = count(E).
proc build(:)
  team(D)(N) := emp(D, N).
  dept_set(D, team(D)) := emp(D, _).
  return(:) := emp(_,_).
end
`
	var emps [][]any
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		emps = append(emps, []any{
			fmt.Sprintf("dept%02d", rng.Intn(17)),
			fmt.Sprintf("emp%03d", i),
		})
	}
	queries := []string{
		"dept_set(dept03, S) & S(N)",
		"dept_set(D, S) & S(N)",
		"headcount(D, N)",
	}
	var ref []string
	var refName string
	for name, opts := range map[string][]Option{
		"batch":             nil,
		"scalar":            {WithBatchKernels(false)},
		"string-key":        {WithStringKeyKernels()},
		"scalar+string-key": {WithBatchKernels(false), WithStringKeyKernels()},
	} {
		sys := New(opts...)
		if err := sys.Load(program); err != nil {
			t.Fatal(err)
		}
		sys.Assert("emp", emps...)
		if _, err := sys.Call("main", "build"); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		var got []string
		for _, q := range queries {
			res, err := sys.Query(q)
			if err != nil {
				t.Fatalf("%s: query %s: %v", name, q, err)
			}
			got = append(got, rowsKey(res))
		}
		if ref == nil {
			ref, refName = got, name
			for i, k := range ref {
				if k == "" {
					t.Fatalf("query %q returned no rows; nothing was exercised", queries[i])
				}
			}
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: query %q differs from %s:\n%s\nvs\n%s",
					name, queries[i], refName, got[i], ref[i])
			}
		}
	}
}

// TestQuickKernelParity sweeps random programs through both kernel
// families: every configuration must agree row for row.
func TestQuickKernelParity(t *testing.T) {
	kernels := map[string][]Option{
		"batch":             nil,
		"scalar":            {WithBatchKernels(false)},
		"string-key":        {WithStringKeyKernels()},
		"scalar+string-key": {WithBatchKernels(false), WithStringKeyKernels()},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDerived := 1 + rng.Intn(3)
		program := genProgram(rng, nDerived)
		e0, e1 := genFacts(rng, 5, 6+rng.Intn(8))
		target := fmt.Sprintf("d%d", nDerived-1)
		queries := []string{
			fmt.Sprintf("%s(X, Y)", target),
			fmt.Sprintf("%s(%d, Y)", target, rng.Intn(5)),
		}
		var ref []string
		var refName string
		for name, opts := range kernels {
			sys := New(opts...)
			if err := sys.Load(program); err != nil {
				t.Fatalf("seed %d: generated program invalid: %v\n%s", seed, err, program)
			}
			sys.Assert("e0", e0...)
			sys.Assert("e1", e1...)
			var got []string
			for _, q := range queries {
				res, err := sys.Query(q)
				if err != nil {
					t.Fatalf("seed %d (%s): query %s: %v\n%s",
						seed, name, q, err, program)
				}
				got = append(got, rowsKey(res))
			}
			if ref == nil {
				ref, refName = got, name
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("seed %d: %s disagrees with %s on %q:\n%s\nvs\n%s",
						seed, name, refName, queries[i], got[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
