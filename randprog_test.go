package gluenail

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Differential testing over randomly generated stratified Datalog
// programs: semi-naive, naive, magic, no-magic, and every executor
// configuration must agree on every query. This exercises the NAIL!
// compiler far beyond the hand-written programs — random recursion
// shapes, negation at stratum boundaries, and random binding patterns.

// genProgram builds a random stratified program over binary predicates
// d0..d(n-1) on top of base relations e0, e1. Predicates may recurse on
// themselves; negation only references strictly lower predicates.
func genProgram(rng *rand.Rand, nDerived int) string {
	var sb strings.Builder
	sb.WriteString("edb e0(X,Y), e1(X,Y);\n")
	vars := []string{"X", "Y", "Z", "W"}
	for d := 0; d < nDerived; d++ {
		nRules := 1 + rng.Intn(2)
		if d == 0 {
			nRules = 1 + rng.Intn(2)
		}
		recursive := rng.Intn(2) == 0
		for r := 0; r < nRules; r++ {
			// Body: 2-3 positive atoms over base/lower/self preds.
			nAtoms := 2 + rng.Intn(2)
			var body []string
			bound := map[string]bool{}
			for a := 0; a < nAtoms; a++ {
				var pred string
				switch {
				case a == 0 || !recursive:
					// First atom is always a base relation, so recursion
					// has an exit and stays finite.
					pred = fmt.Sprintf("e%d", rng.Intn(2))
				case rng.Intn(3) == 0 && r > 0:
					pred = fmt.Sprintf("d%d", d) // self-recursion
				case d > 0:
					pred = fmt.Sprintf("d%d", rng.Intn(d))
				default:
					pred = fmt.Sprintf("e%d", rng.Intn(2))
				}
				v1 := vars[rng.Intn(len(vars))]
				v2 := vars[rng.Intn(len(vars))]
				body = append(body, fmt.Sprintf("%s(%s,%s)", pred, v1, v2))
				bound[v1], bound[v2] = true, true
			}
			// Optional stratified negation of a lower predicate with
			// already-bound arguments.
			if d > 0 && rng.Intn(3) == 0 {
				var bv []string
				for v := range bound {
					bv = append(bv, v)
				}
				if len(bv) >= 2 {
					body = append(body, fmt.Sprintf("!d%d(%s,%s)", rng.Intn(d), bv[0], bv[1]))
				}
			}
			// Head vars drawn from the bound set.
			var bv []string
			for _, v := range vars {
				if bound[v] {
					bv = append(bv, v)
				}
			}
			h1 := bv[rng.Intn(len(bv))]
			h2 := bv[rng.Intn(len(bv))]
			fmt.Fprintf(&sb, "d%d(%s,%s) :- %s.\n", d, h1, h2, strings.Join(body, " & "))
		}
	}
	return sb.String()
}

func genFacts(rng *rand.Rand, nNodes, nFacts int) (e0, e1 [][]any) {
	for i := 0; i < nFacts; i++ {
		e0 = append(e0, []any{rng.Intn(nNodes), rng.Intn(nNodes)})
		e1 = append(e1, []any{rng.Intn(nNodes), rng.Intn(nNodes)})
	}
	return
}

func rowsKey(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

func TestQuickRandomProgramsAllConfigsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDerived := 1 + rng.Intn(3)
		program := genProgram(rng, nDerived)
		e0, e1 := genFacts(rng, 5, 6+rng.Intn(8))
		target := fmt.Sprintf("d%d", nDerived-1)
		queries := []string{
			fmt.Sprintf("%s(X, Y)", target),
			fmt.Sprintf("%s(%d, Y)", target, rng.Intn(5)),
			fmt.Sprintf("%s(X, %d)", target, rng.Intn(5)),
		}
		var ref []string
		for name, opts := range allConfigs(t) {
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
					t.Fatalf("seed %d (%s): query %s: %v\n%s", seed, name, q, err, program)
				}
				got = append(got, rowsKey(res))
			}
			sys.Close()
			if ref == nil {
				ref = got
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Logf("seed %d: config %s disagrees on %s\nprogram:\n%s\ngot:  %s\nwant: %s",
						seed, name, queries[i], program, got[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomProgramsMatchNaiveReference evaluates the generated
// program with a plain Go fixpoint interpreter and checks the engine's
// all-free answers match exactly.
func TestQuickRandomProgramsMatchNaiveReference(t *testing.T) {
	type atom struct {
		pred   string
		neg    bool
		v1, v2 string
	}
	type rule struct {
		h1, h2 string
		body   []atom
	}
	parseProgram := func(program string) map[string][]rule {
		rules := map[string][]rule{}
		for _, line := range strings.Split(program, "\n") {
			line = strings.TrimSuffix(strings.TrimSpace(line), ".")
			if !strings.Contains(line, ":-") {
				continue
			}
			headBody := strings.SplitN(line, ":-", 2)
			head := strings.TrimSpace(headBody[0])
			name := head[:strings.Index(head, "(")]
			args := strings.Split(head[strings.Index(head, "(")+1:len(head)-1], ",")
			r := rule{h1: args[0], h2: args[1]}
			for _, g := range strings.Split(headBody[1], "&") {
				g = strings.TrimSpace(g)
				a := atom{}
				if strings.HasPrefix(g, "!") {
					a.neg = true
					g = g[1:]
				}
				a.pred = g[:strings.Index(g, "(")]
				gargs := strings.Split(g[strings.Index(g, "(")+1:len(g)-1], ",")
				a.v1, a.v2 = gargs[0], gargs[1]
				r.body = append(r.body, a)
			}
			rules[name] = append(rules[name], r)
		}
		return rules
	}
	evalRef := func(rules map[string][]rule, facts map[string]map[[2]int]bool, nNodes int) map[string]map[[2]int]bool {
		// Stratified naive fixpoint: predicates d0..dk in index order, each
		// to fixpoint (negation only references lower indexes).
		db := map[string]map[[2]int]bool{}
		for k, v := range facts {
			db[k] = v
		}
		names := make([]string, 0, len(rules))
		for i := 0; ; i++ {
			n := fmt.Sprintf("d%d", i)
			if _, ok := rules[n]; !ok {
				break
			}
			names = append(names, n)
		}
		for _, name := range names {
			if db[name] == nil {
				db[name] = map[[2]int]bool{}
			}
			for changed := true; changed; {
				changed = false
				for _, r := range rules[name] {
					// Enumerate all variable assignments (≤4 vars, ≤5 nodes).
					vars := map[string]bool{}
					for _, a := range r.body {
						vars[a.v1] = true
						vars[a.v2] = true
					}
					var vlist []string
					for v := range vars {
						vlist = append(vlist, v)
					}
					n := len(vlist)
					total := 1
					for i := 0; i < n; i++ {
						total *= nNodes
					}
					for enc := 0; enc < total; enc++ {
						env := map[string]int{}
						e := enc
						for i := 0; i < n; i++ {
							env[vlist[i]] = e % nNodes
							e /= nNodes
						}
						ok := true
						for _, a := range r.body {
							rel := db[a.pred]
							holds := rel != nil && rel[[2]int{env[a.v1], env[a.v2]}]
							if holds == a.neg {
								ok = false
								break
							}
						}
						if ok {
							key := [2]int{env[r.h1], env[r.h2]}
							if !db[name][key] {
								db[name][key] = true
								changed = true
							}
						}
					}
				}
			}
		}
		return db
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nNodes = 4
		nDerived := 1 + rng.Intn(2)
		program := genProgram(rng, nDerived)
		e0, e1 := genFacts(rng, nNodes, 5+rng.Intn(5))
		facts := map[string]map[[2]int]bool{
			"e0": {}, "e1": {},
		}
		for _, f := range e0 {
			facts["e0"][[2]int{f[0].(int), f[1].(int)}] = true
		}
		for _, f := range e1 {
			facts["e1"][[2]int{f[0].(int), f[1].(int)}] = true
		}
		rules := parseProgram(program)
		want := evalRef(rules, facts, nNodes)
		target := fmt.Sprintf("d%d", nDerived-1)

		sys := New()
		if err := sys.Load(program); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, program)
		}
		sys.Assert("e0", e0...)
		sys.Assert("e1", e1...)
		res, err := sys.Query(fmt.Sprintf("%s(X, Y)", target))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, program)
		}
		if len(res.Rows) != len(want[target]) {
			t.Logf("seed %d: %d rows, reference %d\n%s", seed, len(res.Rows), len(want[target]), program)
			return false
		}
		for _, row := range res.Rows {
			if !want[target][[2]int{int(row[0].Int()), int(row[1].Int())}] {
				t.Logf("seed %d: unexpected %v\n%s", seed, row, program)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderIndependence is the safety property of the statistics-driven
// physical planner: textual order (the "no-reorder" baseline), the
// compiler's static greedy order ("greedy-order"), and the run-time
// cost-based order (default) must produce byte-identical query results on
// random stratified programs. The planner may only change *how fast*
// answers arrive, never *which* answers.
func TestQuickOrderIndependence(t *testing.T) {
	orderings := map[string][]Option{
		"no-reorder":   {WithBaseline("no-reorder")},
		"greedy-order": {WithBaseline("greedy-order")},
		"stats":        nil,
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
		for name, opts := range orderings {
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
					t.Logf("seed %d: ordering %s disagrees with %s on %s\nprogram:\n%s\ngot:  %s\nwant: %s",
						seed, name, refName, queries[i], program, got[i], ref[i])
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
