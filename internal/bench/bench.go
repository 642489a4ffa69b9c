// Package bench builds the workloads for the paper's experiments (see
// DESIGN.md §4 and EXPERIMENTS.md). Both the testing.B benchmarks at the
// repository root and the cmd/glbench table harness drive these builders,
// so the measured code paths are identical.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"gluenail"
	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// ---------- E1: compiler throughput ----------

// SyntheticProgram generates a module with nStmts assignment statements
// spread over procedures, shaped like application code: joins, filters,
// arithmetic, and an occasional aggregate.
func SyntheticProgram(nStmts int) string {
	var sb strings.Builder
	sb.WriteString("module synth;\n")
	sb.WriteString("edb r0(A,B), r1(A,B), r2(A,B), r3(A,B);\n")
	perProc := 8
	stmt := 0
	proc := 0
	for stmt < nStmts {
		fmt.Fprintf(&sb, "proc p%d(:)\nrels t%d(A,B);\n", proc, proc)
		for j := 0; j < perProc && stmt < nStmts; j++ {
			switch stmt % 4 {
			case 0:
				fmt.Fprintf(&sb, "  t%d(X,Z) := r%d(X,Y) & r%d(Y,Z).\n", proc, stmt%4, (stmt+1)%4)
			case 1:
				fmt.Fprintf(&sb, "  t%d(X,Y) += r%d(X,Y) & X != Y.\n", proc, stmt%4)
			case 2:
				fmt.Fprintf(&sb, "  t%d(X,W) += r%d(X,Y) & W = X*2 + Y.\n", proc, stmt%4)
			case 3:
				fmt.Fprintf(&sb, "  t%d(X,M) := r%d(X,Y) & group_by(X) & M = max(Y).\n", proc, stmt%4)
			}
			stmt++
		}
		fmt.Fprintf(&sb, "  return(:) := t%d(_,_).\nend\n", proc)
		proc++
	}
	sb.WriteString("end\n")
	return sb.String()
}

// CompileSource runs the full compilation pipeline — lex, parse, link,
// plan — over one source string: the E1 unit of work.
func CompileSource(src string) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	lp, err := modsys.Link(prog)
	if err != nil {
		return err
	}
	c := plan.NewCompiler(lp, plan.Options{})
	return c.CompileAll()
}

// ---------- graph generators ----------

// ChainEdges returns the edges of the path 1 -> 2 -> ... -> n.
func ChainEdges(n int) [][]any {
	out := make([][]any, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, []any{i, i + 1})
	}
	return out
}

// RandomEdges returns m random edges over n nodes (deterministic by seed).
func RandomEdges(n, m int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]any, 0, m)
	for i := 0; i < m; i++ {
		out = append(out, []any{rng.Intn(n) + 1, rng.Intn(n) + 1})
	}
	return out
}

// ---------- E5/E9: transitive closure systems ----------

const tcRules = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

// NewTCSystem loads the transitive-closure rules and asserts the edges.
func NewTCSystem(edges [][]any, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(tcRules); err != nil {
		panic(err)
	}
	if err := sys.Assert("edge", edges...); err != nil {
		panic(err)
	}
	return sys
}

// ---------- E2: pipelined vs materialized join chains ----------

const joinChain = `
edb a(X,Y), b(X,Y), c(X,Y), out(X,Y);
proc chain(:)
  out(X,W) := a(X,Y) & b(Y,Z) & c(Z,W).
  return(:) := out(_,_).
end
`

// NewJoinSystem builds a 3-way join over relations of n rows each with the
// given fanout (rows per join key).
func NewJoinSystem(n, fanout int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(joinChain); err != nil {
		panic(err)
	}
	keys := n / fanout
	if keys == 0 {
		keys = 1
	}
	var a, b, c [][]any
	for i := 0; i < n; i++ {
		k := i % keys
		a = append(a, []any{k, (k + 1) % keys})
		b = append(b, []any{k, (k + i) % keys})
		c = append(c, []any{k, i})
	}
	must(sys.Assert("a", a...))
	must(sys.Assert("b", b...))
	must(sys.Assert("c", c...))
	return sys
}

// RunJoin executes the chain procedure once.
func RunJoin(sys *gluenail.System) error {
	_, err := sys.Call("main", "chain")
	return err
}

// ---------- E11: durability (WAL-on vs WAL-off statement throughput) ----------

// durableProgram runs EDB insert statements inside a repeat loop; every
// top-level statement is a WAL commit point, so the loop measures commit
// overhead rather than compile or assert cost.
const durableProgram = `
edb ev(X,Y);
proc pump(Lo, Hi :)
rels cursor(X);
  cursor(X) := in(X, _).
  repeat
    ev(X, Y) += cursor(X) & Y = X * 2.
    cursor(X) := cursor(Y) & X = Y + 1.
  until cursor(X) & in(_, H) & X > H;
  return(Lo, Hi :) := in(Lo, Hi).
end
`

// NewDurableSystem builds the E11 workload system. dir == "" disables
// durability (the WAL-off baseline); otherwise the directory is wiped
// first so every run starts from an empty store.
func NewDurableSystem(dir string, mode gluenail.FsyncMode, opts ...gluenail.Option) (*gluenail.System, error) {
	var sys *gluenail.System
	if dir == "" {
		sys = gluenail.New(opts...)
	} else {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		sys, err = gluenail.Open(dir, append(opts, gluenail.WithFsync(mode))...)
		if err != nil {
			return nil, err
		}
	}
	if err := sys.Load(durableProgram); err != nil {
		return nil, err
	}
	return sys, nil
}

// RunDurable executes n loop iterations of EDB insert statements (each a
// commit point when durability is on).
func RunDurable(sys *gluenail.System, n int) error {
	_, err := sys.Call("main", "pump", []any{0, n})
	return err
}

// ---------- E3: duplicate elimination at breaks ----------

const dupProgram = `
edb wide(X, K), follow(X, Y), out(X, Y);
proc ident(X:)
  return(X:) := in(X).
end
proc project(:)
  out(X, Y) := wide(X, _) & ident(X) & follow(X, Y).
  return(:) := out(_,_).
end
`

// NewDupSystem builds a relation with nKeys distinct keys, each duplicated
// dup times; the project procedure projects the key ahead of a procedure
// call (a pipeline break), so dedup there shrinks both the call input and
// the rows carried into the follow join by the duplicate factor.
func NewDupSystem(nKeys, dup int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(dupProgram); err != nil {
		panic(err)
	}
	rows := make([][]any, 0, nKeys*dup)
	for k := 0; k < nKeys; k++ {
		for d := 0; d < dup; d++ {
			rows = append(rows, []any{k, d})
		}
	}
	must(sys.Assert("wide", rows...))
	fol := make([][]any, 0, nKeys*4)
	for k := 0; k < nKeys; k++ {
		for j := 0; j < 4; j++ {
			fol = append(fol, []any{k, j})
		}
	}
	must(sys.Assert("follow", fol...))
	return sys
}

// RunDup executes the projecting procedure once.
func RunDup(sys *gluenail.System) error {
	_, err := sys.Call("main", "project")
	return err
}

// ---------- E4: adaptive indexing (storage level) ----------

// AdaptiveResult reports one adaptive-indexing run.
type AdaptiveResult struct {
	RowsScanned int64
	RowsProbed  int64
	IndexBuilds int64
}

// RunSelections performs q equality selections on column 0 of a fresh
// nRows-row relation under the given index policy, returning the back-end
// work counters. Matching rows per selection = nRows/keys.
func RunSelections(policy storage.IndexPolicy, nRows, keys, q int) AdaptiveResult {
	stats := &storage.Stats{}
	rel := storage.NewRelation(term.NewString("r"), 2, policy, stats)
	for i := 0; i < nRows; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i % keys)), term.NewInt(int64(i))})
	}
	stats.RowsScanned = 0 // ignore load-time work
	for i := 0; i < q; i++ {
		key := term.Tuple{term.NewInt(int64(i % keys)), {}}
		rel.Lookup(0b01, key, func(term.Tuple) bool { return true })
	}
	return AdaptiveResult{
		RowsScanned: stats.RowsScanned,
		RowsProbed:  stats.RowsProbed,
		IndexBuilds: stats.IndexBuilds,
	}
}

// ---------- E6: HiLog dispatch narrowing ----------

// NewDispatchSystem builds holder/1 naming nSets set relations of setSize
// elements each, plus noise relations that only the unnarrowed baseline
// has to wade through.
func NewDispatchSystem(nSets, setSize, noise int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	var decls strings.Builder
	decls.WriteString("edb holder(S)")
	for i := 0; i < nSets; i++ {
		fmt.Fprintf(&decls, ", set%d(X)", i)
	}
	decls.WriteString(";\n")
	decls.WriteString(`
edb out(X);
proc sweep(:)
  out(X) := holder(S) & S(X).
  return(:) := out(_).
end
`)
	if err := sys.Load(decls.String()); err != nil {
		panic(err)
	}
	for i := 0; i < nSets; i++ {
		name := fmt.Sprintf("set%d", i)
		rows := make([][]any, setSize)
		for j := 0; j < setSize; j++ {
			rows[j] = []any{i*setSize + j}
		}
		must(sys.Assert(name, rows...))
		must(sys.Assert("holder", []any{gluenail.Str(name)}))
	}
	// Noise relations in the store (different arity, so never candidates).
	for i := 0; i < noise; i++ {
		must(sys.Assert(fmt.Sprintf("noise%d", i), []any{i, i, i}))
	}
	return sys
}

// RunDispatch executes the dispatching sweep once.
func RunDispatch(sys *gluenail.System) error {
	_, err := sys.Call("main", "sweep")
	return err
}

// ---------- E7: set equality by name vs extensionally ----------

const setEqProgram = `
edb pair(S,T), same(S,T);
proc set_eq(S, T:)
rels different(S,T);
  different(S,T):= in(S,T) & S(X) & !T(X).
  different(S,T)+= in(S,T) & T(X) & !S(X).
  return(S,T:):= !different(S,T).
end
proc by_name(:)
  same(S,T) := pair(S,T) & S = T.
  return(:) := pair(_,_).
end
proc by_members(:)
  same(S,T) := pair(S,T) & set_eq(S,T).
  return(:) := pair(_,_).
end
`

// NewSetEqSystem builds nPairs pairs of set names over sets of setSize
// elements; half the pairs are identical names, half differ.
func NewSetEqSystem(nPairs, setSize int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(setEqProgram); err != nil {
		panic(err)
	}
	for i := 0; i < nPairs; i++ {
		name := gluenail.Compound("s", gluenail.Int(int64(i)))
		rows := make([][]any, setSize)
		for j := 0; j < setSize; j++ {
			rows[j] = []any{j}
		}
		must(sys.Assert(name, rows...))
		if i%2 == 0 {
			must(sys.Assert("pair", []any{name, name}))
		} else {
			other := gluenail.Compound("s", gluenail.Int(int64((i+1)%nPairs)))
			must(sys.Assert("pair", []any{name, other}))
		}
	}
	return sys
}

// RunSetEqByName compares the pairs by name equality.
func RunSetEqByName(sys *gluenail.System) error {
	_, err := sys.Call("main", "by_name")
	return err
}

// RunSetEqByMembers compares the pairs extensionally via set_eq.
func RunSetEqByMembers(sys *gluenail.System) error {
	_, err := sys.Call("main", "by_members")
	return err
}

// ---------- E8: backend layering ----------

const temporariesProgram = `
edb edge(X,Y);
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & edge(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & edge(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
`

// NewTemporariesSystem builds the paper's tc_e procedure over a chain;
// every call creates and drops frame-local temporaries, the workload the
// tailored main-memory back end exists for (§10).
func NewTemporariesSystem(chain int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(temporariesProgram); err != nil {
		panic(err)
	}
	must(sys.Assert("edge", ChainEdges(chain)...))
	return sys
}

// RunTemporaries calls tc_e once per origin, forcing calls*<locals> ephemeral
// relations through the store.
func RunTemporaries(sys *gluenail.System, calls int) error {
	for i := 1; i <= calls; i++ {
		if _, err := sys.Call("main", "tc_e", []any{i}); err != nil {
			return err
		}
	}
	return nil
}

// ---------- A1: subgoal reordering ablation ----------

const reorderProgram = `
edb a(X), cross(Z), sel(X, Tag), out(X,Z);
proc go(:)
  out(X,Z) := a(X) & cross(Z) & sel(X, 5).
  return(:) := a(_).
end
`

// NewReorderSystem builds a statement whose source order forms a cross
// product before a selective constant-argument lookup; the greedy
// reordering of §3.1 moves the lookup first.
func NewReorderSystem(n int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(reorderProgram); err != nil {
		panic(err)
	}
	var aRows, crossRows, selRows [][]any
	for i := 0; i < n; i++ {
		aRows = append(aRows, []any{i})
		crossRows = append(crossRows, []any{i})
	}
	for i := 0; i < n; i += 100 {
		selRows = append(selRows, []any{i, 5})
	}
	must(sys.Assert("a", aRows...))
	must(sys.Assert("cross", crossRows...))
	must(sys.Assert("sel", selRows...))
	return sys
}

// RunReorder executes the statement once.
func RunReorder(sys *gluenail.System) error {
	_, err := sys.Call("main", "go")
	return err
}

// ---------- F1: the Figure 1 micro-CAD select ----------

const cadModule = `
module example;
export select(:Key);
edb element(Key, Origin, P1, P2, DS), tolerance(T);

proc select(:Key)
rels possible(Key, D), try(Key), confirmed(Key);
  possible( Key, D ):=
        event( mouse, p(X,Y) ) &
        graphic_search( p(X,Y), Key, D ).
  repeat
    try(Key):=
      possible( Key, D ) &
      D = min(D) &
      It = arbitrary(Key) &
      Key = It &
      --possible( It, D ).
    confirmed(K):=
      try(K) &
      highlight(K) &
      write( 'This one?' ) &
      event( keyboard, KeyBuffer ) &
      dehighlight( K ) &
      KeyBuffer = 'y'.
  until {confirmed(K) | empty(possible(_,_)) };
  return(:Key):= confirmed( Key ).
end

graphic_search( p(X,Y), Key, Dist ):-
  element( Key, _, p(Xmin, Ymin), _, _ ) &
  tolerance( T ) &
  Dist = (X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin) &
  Dist < T.
end
`

// CadRun holds a prepared select invocation over nElements, with a
// scripted event queue that rejects the first candidate and accepts the
// second.
type CadRun struct {
	sys    *gluenail.System
	events [][2]gluenail.Value
	queue  [][2]gluenail.Value
}

// NewCadRun builds the Figure 1 module with nElements on a grid and a
// scripted user.
func NewCadRun(nElements int, opts ...gluenail.Option) *CadRun {
	r := &CadRun{}
	r.events = [][2]gluenail.Value{
		{gluenail.Str("mouse"), gluenail.Compound("p", gluenail.Int(5), gluenail.Int(5))},
		{gluenail.Str("keyboard"), gluenail.Str("n")},
		{gluenail.Str("keyboard"), gluenail.Str("y")},
	}
	var discard strings.Builder
	sys := gluenail.New(append([]gluenail.Option{gluenail.WithOutput(&discard)}, opts...)...)
	must(sys.Register("event", 0, 2, true, func(in [][]gluenail.Value) ([][]gluenail.Value, error) {
		if len(in) == 0 || len(r.queue) == 0 {
			return nil, nil
		}
		e := r.queue[0]
		r.queue = r.queue[1:]
		return [][]gluenail.Value{{e[0], e[1]}}, nil
	}))
	passthrough := func(in [][]gluenail.Value) ([][]gluenail.Value, error) { return in, nil }
	must(sys.Register("highlight", 1, 0, true, passthrough))
	must(sys.Register("dehighlight", 1, 0, true, passthrough))
	must(sys.Load(cadModule))
	rows := make([][]any, nElements)
	for i := range rows {
		x, y := int64(i%100), int64(i/100)
		rows[i] = []any{
			fmt.Sprintf("el%d", i), "origin",
			gluenail.Compound("p", gluenail.Int(x), gluenail.Int(y)),
			gluenail.Compound("p", gluenail.Int(x+1), gluenail.Int(y+1)),
			"solid",
		}
	}
	must(sys.Assert("element", rows...))
	must(sys.Assert("tolerance", []any{18}))
	r.sys = sys
	return r
}

// Select runs one scripted selection, returning the chosen element key.
func (r *CadRun) Select() (string, error) {
	r.queue = append([][2]gluenail.Value(nil), r.events...)
	rows, err := r.sys.Call("example", "select")
	if err != nil {
		return "", err
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("nothing selected")
	}
	return rows[0][0].Str(), nil
}

// ---------- E12: statistics-driven physical ordering on skewed joins ----------

const skewJoinProgram = `
edb big(X,Y), probe(Y,Z), out(X,Z);
proc go(:)
  out(X,Z) := big(X,Y) & probe(Y,Z).
  return(:) := out(_,_).
end
`

// NewSkewJoinSystem builds the E12 workload: big(X,Y) holds n rows whose
// join column Y is heavily skewed (only every rare-th row carries the key
// the k-row probe relation selects; the rest share a never-matching key).
// No subgoal has a constant argument, so the compiler's static greedy
// scores tie and keep the textual order — scan big, probe tiny — for both
// the textual and greedy ablations. Only live row counts reveal that
// starting from probe and index-probing big touches a fraction of the
// data; that is exactly the statistic the run-time planner consults.
func NewSkewJoinSystem(n, rare, k int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(skewJoinProgram); err != nil {
		panic(err)
	}
	bigRows := make([][]any, n)
	for i := range bigRows {
		y := 0
		if i%rare == 0 {
			y = 1
		}
		bigRows[i] = []any{i, y}
	}
	probeRows := make([][]any, k)
	for j := range probeRows {
		probeRows[j] = []any{1, fmt.Sprintf("z%d", j)}
	}
	must(sys.Assert("big", bigRows...))
	must(sys.Assert("probe", probeRows...))
	return sys
}

// RunSkewJoin executes the join statement once.
func RunSkewJoin(sys *gluenail.System) error {
	_, err := sys.Call("main", "go")
	return err
}

// SkewJoinResult returns the materialized join output in sorted order, for
// checking that every ordering mode computes identical results.
func SkewJoinResult(sys *gluenail.System) (string, error) {
	if err := RunSkewJoin(sys); err != nil {
		return "", err
	}
	rows, err := sys.Relation("out", 2)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String(), nil
}

// ---------- E13: hash-first hot-path kernels ----------

// tcGroupProgram is the E13 workload: hand-written semi-naive transitive
// closure followed by a group-by count. Every repeat iteration funnels the
// join output through duplicate elimination (the projection X,Z has one
// row per path), the closure feeds an aggregation grouping, and the head
// inserts probe the tc relation — together the tuple-level hot paths the
// hash-first data layer (interned atoms, cached row hashes,
// open-addressing kernels) attacks.
const tcGroupProgram = `
edb edge(X,Y), reach(X,C);
proc spread(:)
rels tc(X,Y), delta(X,Y), nxt(X,Y);
  tc(X,Y) := edge(X,Y).
  delta(X,Y) := edge(X,Y).
  repeat
    nxt(X,Z) := delta(X,Y) & edge(Y,Z) & !tc(X,Z).
    tc(X,Z) += nxt(X,Z).
    delta(X,Z) := nxt(X,Z).
  until empty(nxt(_,_));
  reach(X,C) := tc(X,Y) & group_by(X) & C = count(Y).
  return(:) := reach(_,_).
end
`

// NewTCGroupSystem builds the E13 system: a random graph over n
// string-labelled nodes (atoms, so tuple hashing exercises the string
// path) with m edges.
func NewTCGroupSystem(n, m int, seed int64, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(tcGroupProgram); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]any, 0, m)
	for i := 0; i < m; i++ {
		rows = append(rows, []any{
			fmt.Sprintf("n%03d", rng.Intn(n)),
			fmt.Sprintf("n%03d", rng.Intn(n)),
		})
	}
	must(sys.Assert("edge", rows...))
	return sys
}

// RunTCGroup executes the closure + group-by procedure once.
func RunTCGroup(sys *gluenail.System) error {
	_, err := sys.Call("main", "spread")
	return err
}

// TCGroupResult renders the reach relation in sorted order, for checking
// that kernel variants agree byte-for-byte.
func TCGroupResult(sys *gluenail.System) (string, error) {
	rows, err := sys.Relation("reach", 2)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String(), nil
}

// ---------- E15: repeated small bound queries (prepared plans + batch kernels) ----------

// repeatedQueryProgram is the E15 schema: an order/items/stock/supplier/
// region star. The workload issues the same bound customer lookup over
// and over — the interactive pattern of §4's set-at-a-time procedure
// calls — so per-query planning overhead, not data volume, dominates
// unless plans are reused.
const repeatedQueryProgram = `
edb orders(C, O), items(O, I, P), stock(I, S), supplier(I, U), region(U, R);
`

// RepeatedQueryGoals is the E15 query text: a bound-customer probe feeding
// a four-deep index-probe chain through selective range filters. The
// statement is long enough that the statistics-driven physical planner
// does real work per query; identical text every time, so the compiled
// statement is shared and the plan cache can serve every run after the
// first.
const RepeatedQueryGoals = "orders(42, O) & items(O, I, P) & P > 30 & P < 90 & " +
	"stock(I, S) & S > 0 & S < 5 & supplier(I, U) & U != 13 & region(U, R) & R > 1"

// NewRepeatedQuerySystem builds the E15 system: customers x ordersPer
// orders, itemsPer items per order with deterministic pseudo-random
// prices, and one stock, supplier, and region row per item.
func NewRepeatedQuerySystem(customers, ordersPer, itemsPer int, opts ...gluenail.Option) *gluenail.System {
	sys := gluenail.New(opts...)
	if err := sys.Load(repeatedQueryProgram); err != nil {
		panic(err)
	}
	nItems := customers * ordersPer
	var ord, it, st, su, re [][]any
	o := 0
	for c := 0; c < customers; c++ {
		for k := 0; k < ordersPer; k++ {
			ord = append(ord, []any{c, o})
			for j := 0; j < itemsPer; j++ {
				item := (o*7 + j*13) % nItems
				it = append(it, []any{o, item, (item*17 + j*29) % 120})
			}
			o++
		}
	}
	for i := 0; i < nItems; i++ {
		st = append(st, []any{i, i % 7})
		su = append(su, []any{i, i % 97})
	}
	for u := 0; u < 97; u++ {
		re = append(re, []any{u, u % 4})
	}
	must(sys.Assert("orders", ord...))
	must(sys.Assert("items", it...))
	must(sys.Assert("stock", st...))
	must(sys.Assert("supplier", su...))
	must(sys.Assert("region", re...))
	return sys
}

// RunRepeatedQuery issues the E15 query once, returning the row count so
// harnesses can verify every configuration answers identically.
func RunRepeatedQuery(sys *gluenail.System) (int, error) {
	res, err := sys.Query(RepeatedQueryGoals)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
