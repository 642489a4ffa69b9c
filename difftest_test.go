package gluenail

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential tests: the engine's answers are checked against plain Go
// reference implementations over random inputs, across every optimization
// configuration — the optimizations of §9/§10 must never change results.

// refClosure computes the transitive closure of edges from a source.
func refClosure(edges [][2]int, src int) map[int]bool {
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	seen := map[int]bool{}
	stack := append([]int(nil), adj[src]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, adj[n]...)
	}
	return seen
}

// allConfigs returns every optimization and storage-engine configuration
// the differential suites sweep; all of them must produce byte-identical
// answers. It is a function because the disk-engine and spill
// configurations need per-test scratch directories (cleaned up by the
// testing package; the stores themselves are closed by the sweeps).
func allConfigs(t *testing.T) map[string][]Option {
	t.Helper()
	return map[string][]Option{
		"default":      nil,
		"materialized": {WithMaterializedExecution()},
		"no-dedup":     {WithoutDupElimination()},
		"no-reorder":   {WithoutReordering()},
		"greedy-order": {WithGreedyOrdering()},
		"no-magic":     {WithoutMagicSets()},
		"naive":        {WithNaiveEvaluation()},
		"no-narrow":    {WithoutDispatchNarrowing()},
		"layered":      {WithLayeredBackend()},
		// Storage-engine sweep: EDB on the disk engine, and scratch tables
		// spilling to disk runs past a deliberately tiny in-memory budget —
		// results must not depend on where rows live.
		"disk-store": {WithBackend("disk")},
		"disk-raw":   {WithBackend("disk"), WithBlockCompression(false), WithBlockCache(4)},
		"spill":      {WithSpill(t.TempDir(), 16)},
	}
}

func TestQuickClosureMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(10)
		nEdges := rng.Intn(25)
		edges := make([][2]int, nEdges)
		rows := make([][]any, nEdges)
		for i := range edges {
			a, b := rng.Intn(nNodes), rng.Intn(nNodes)
			edges[i] = [2]int{a, b}
			rows[i] = []any{a, b}
		}
		src := rng.Intn(nNodes)
		want := refClosure(edges, src)

		sys := New()
		if err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`); err != nil {
			t.Fatal(err)
		}
		if nEdges > 0 {
			if err := sys.Assert("edge", rows...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sys.Query(fmt.Sprintf("tc(%d, X)", src))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Logf("seed %d: got %d rows, want %d", seed, len(res.Rows), len(want))
			return false
		}
		for _, r := range res.Rows {
			if !want[int(r[0].Int())] {
				t.Logf("seed %d: unexpected %v", seed, r[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickAllConfigsAgreeOnRandomGraphs(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(8)
		nEdges := rng.Intn(20)
		rows := make([][]any, nEdges)
		for i := range rows {
			rows[i] = []any{rng.Intn(nNodes), rng.Intn(nNodes)}
		}
		src := rng.Intn(nNodes)
		query := fmt.Sprintf("tc(%d, X)", src)
		var ref []int64
		for name, opts := range allConfigs(t) {
			sys := New(opts...)
			if err := sys.Load(`
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`); err != nil {
				t.Fatal(err)
			}
			if nEdges > 0 {
				if err := sys.Assert("edge", rows...); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sys.Query(query)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]int64, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = r[0].Int()
			}
			sys.Close()
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Logf("seed %d %s: %v vs %v", seed, name, got, ref)
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Logf("seed %d %s: %v vs %v", seed, name, got, ref)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refGroupAgg computes per-group min/max/sum/count for the reference.
type refStats struct {
	min, max, sum, count int64
}

func TestQuickAggregatesMatchReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		rows := make([][]any, n)
		set := map[[2]int64]bool{} // relations have set semantics
		for i := range rows {
			g := int64(rng.Intn(4))
			v := int64(rng.Intn(100) - 50)
			rows[i] = []any{g, v}
			set[[2]int64{g, v}] = true
		}
		ref := map[int64]*refStats{}
		for k := range set {
			g, v := k[0], k[1]
			s := ref[g]
			if s == nil {
				ref[g] = &refStats{min: v, max: v, sum: v, count: 1}
			} else {
				if v < s.min {
					s.min = v
				}
				if v > s.max {
					s.max = v
				}
				s.sum += v
				s.count++
			}
		}
		sys := New()
		if err := sys.Load(`
edb obs(G, V);
stats(G, Mn, Mx, S, C) :-
  obs(G, V) & group_by(G) &
  Mn = min(V) & Mx = max(V) & S = sum(V) & C = count(V).
`); err != nil {
			t.Fatal(err)
		}
		if err := sys.Assert("obs", rows...); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query("stats(G, Mn, Mx, S, C)")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(ref) {
			t.Logf("seed %d: %d groups, want %d", seed, len(res.Rows), len(ref))
			return false
		}
		for _, r := range res.Rows {
			s := ref[r[0].Int()]
			if s == nil || r[1].Int() != s.min || r[2].Int() != s.max ||
				r[3].Int() != s.sum || r[4].Int() != s.count {
				t.Logf("seed %d: group %v got (%v,%v,%v,%v) want %+v",
					seed, r[0], r[1], r[2], r[3], r[4], s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nA, nB := rng.Intn(15), rng.Intn(15)
		aRows := make([][]any, nA)
		bRows := make([][]any, nB)
		aSet := map[[2]int64]bool{}
		bSet := map[[2]int64]bool{}
		for i := range aRows {
			x, y := int64(rng.Intn(5)), int64(rng.Intn(5))
			aRows[i] = []any{x, y}
			aSet[[2]int64{x, y}] = true
		}
		for i := range bRows {
			x, y := int64(rng.Intn(5)), int64(rng.Intn(5))
			bRows[i] = []any{x, y}
			bSet[[2]int64{x, y}] = true
		}
		want := map[[2]int64]bool{}
		for a := range aSet {
			for b := range bSet {
				if a[1] == b[0] {
					want[[2]int64{a[0], b[1]}] = true
				}
			}
		}
		sys := New()
		sys.Load(`
edb a(X,Y), b(X,Y);
j(X,Z) :- a(X,Y) & b(Y,Z).
`)
		if nA > 0 {
			sys.Assert("a", aRows...)
		}
		if nB > 0 {
			sys.Assert("b", bRows...)
		}
		res, err := sys.Query("j(X, Z)")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			return false
		}
		for _, r := range res.Rows {
			if !want[[2]int64{r[0].Int(), r[1].Int()}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
