package main

import (
	"fmt"
	"math/rand"
	"time"

	"gluenail"
	"gluenail/internal/term"
)

// ---- recursion_deep ----

// recursionDeep: bound query tc(k, X) over a chain. About one semi-naive
// iteration per edge, one new tuple each, so the per-iteration fixed cost
// of the executor's loop is nearly all the work.
type recursionDeep struct {
	e     *env
	eng   engine
	n     int // chain edges
	rng   *rand.Rand
	preps []prepared // preps[k-1] answers tc(k, X)
	keys  []int      // the planned block
	got   []*gluenail.Result
	errs  []error
	edges [][]any
}

const (
	deepChainEdges = 2000
	deepKeys       = 16
	deepBlock      = 8
)

func (w *recursionDeep) setup(e *env) error {
	w.e = e
	w.n = e.size(deepChainEdges)
	if w.n < deepKeys+1 {
		w.n = deepKeys + 1
	}
	w.rng = rand.New(rand.NewSource(e.seed))
	eng, err := openEngine(engineConfig{fs: e.fs}, e.tr)
	if err != nil {
		return err
	}
	w.eng = eng
	if err := eng.Load(tcProgram); err != nil {
		return err
	}
	w.edges = chainEdges(w.n)
	if err := eng.Assert("edge", w.edges...); err != nil {
		return err
	}
	for k := 1; k <= deepKeys; k++ {
		p, err := eng.Prepare(fmt.Sprintf("tc(%d, X)", k))
		if err != nil {
			return err
		}
		w.preps = append(w.preps, p)
	}
	// Warm-up: fill the plan cache and build the adaptive indexes.
	for i := 0; i < 4; i++ {
		if _, err := w.preps[w.rng.Intn(deepKeys)].Execute(); err != nil {
			return err
		}
	}
	return nil
}

func (w *recursionDeep) plan() {
	w.keys = w.keys[:0]
	for i := 0; i < deepBlock; i++ {
		w.keys = append(w.keys, 1+w.rng.Intn(deepKeys))
	}
	w.got = make([]*gluenail.Result, len(w.keys))
	w.errs = make([]error, len(w.keys))
}

func (w *recursionDeep) run(rec *recorder) (int, int) {
	nrows := 0
	for i, k := range w.keys {
		w.e.opBegin()
		start := time.Now()
		w.got[i], w.errs[i] = w.preps[k-1].Execute()
		rec.reads = append(rec.reads, ms(time.Since(start)))
		w.e.opEnd()
		if w.errs[i] == nil {
			nrows += len(w.got[i].Rows)
		}
	}
	return len(w.keys), nrows
}

func (w *recursionDeep) check(rec *recorder) {
	for i, k := range w.keys {
		checkResult(rec, fmt.Sprintf("tc(%d, X)", k), w.got[i], w.errs[i], chainReach(k, w.n))
	}
}

func (w *recursionDeep) finish(*recorder) {}
func (w *recursionDeep) close() error     { return w.eng.Close() }

func (w *recursionDeep) info() map[string]any {
	return map[string]any{
		"clients": 1, "loop": "closed", "store": "mem", "durable": false,
		"chain_edges": w.n, "bound_keys": deepKeys, "ops_per_window": deepBlock,
		"one_op":     "Prepared.Execute of tc(k, X), magic-set rewritten, ~one iteration per edge",
		"rows_per_s": "derived (= returned) tuples per second",
	}
}

func (w *recursionDeep) layers() layerInput {
	return layerInput{engines: []engine{w.eng}, tuples: anyTuples(w.edges),
		sources: []string{tcProgram}, goals: []string{"tc(1, X)", "tc(16, X)"}}
}

// checkResult compares one query answer with the oracle's rows and folds
// its digest into the recorder.
func checkResult(rec *recorder, what string, got *gluenail.Result, err error, want rows) {
	if err != nil {
		rec.fail("%s: %v", what, err)
		rec.digests = append(rec.digests, 0)
		return
	}
	checkRows(rec, what, got.Rows, want)
}

func checkRows(rec *recorder, what string, vals [][]gluenail.Value, want rows) {
	rec.digests = append(rec.digests, digestValues(vals))
	got, err := intRows(vals)
	if err != nil {
		rec.fail("%s: %v", what, err)
		return
	}
	if d := diffRows(got, want); d != "" {
		rec.fail("%s: %s", what, d)
	}
}

// anyTuples converts generator rows to term tuples for the direct probes.
func anyTuples(rows [][]any) []term.Tuple {
	const max = 20000
	if len(rows) > max {
		rows = rows[:max]
	}
	out := make([]term.Tuple, 0, len(rows))
	for _, r := range rows {
		if t, err := toTuple(r); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// ---- recursion_wide ----

// recursionWide: one op is a round of full transitive closure on a sparse
// layered digraph plus same-generation on a balanced tree, rotating over
// pre-built graphs. Few iterations, many derived tuples: per-tuple join,
// dedup, hashing and insert cost dominate and loop overhead is negligible.
type recursionWide struct {
	e      *env
	rng    *rand.Rand
	graphs []*wideGraph
	next   int
	order  []int // the planned block: graph indexes
	gotTC  []*gluenail.Result
	gotSG  []*gluenail.Result
	errs   []error
	edges  [][]any
}

type wideGraph struct {
	eng    engine
	tc, sg prepared
	wantTC rows
	wantSG rows
}

const (
	wideGraphs    = 8
	wideLayers    = 12
	wideWidth     = 14
	wideDegree    = 2
	wideBranching = 4
	wideDepth     = 3
	wideBlock     = 8
)

func (w *recursionWide) setup(e *env) error {
	w.e = e
	w.rng = rand.New(rand.NewSource(e.seed))
	width, depth := e.size(wideWidth), wideDepth
	if e.scale < 1 {
		depth = 2
	}
	if width < 3 {
		width = 3
	}
	for g := 0; g < wideGraphs; g++ {
		shape := rand.New(rand.NewSource(int64(1000 + g)))
		edges := sparseDigraph(shape, w.rng, wideLayers, width, wideDegree)
		parent := balancedTree(w.rng, wideBranching, depth, 1_000_000)
		eng, err := openEngine(engineConfig{fs: e.fs}, e.tr)
		if err != nil {
			return err
		}
		wg := &wideGraph{eng: eng, wantTC: reachPairs(edges), wantSG: sameGeneration(parent)}
		w.graphs = append(w.graphs, wg)
		if err := eng.Load(tcProgram + sgProgram); err != nil {
			return err
		}
		if err := eng.Assert("edge", pairRows(edges)...); err != nil {
			return err
		}
		if err := eng.Assert("parent", pairRows(parent)...); err != nil {
			return err
		}
		if wg.tc, err = eng.Prepare("tc(X, Y)"); err != nil {
			return err
		}
		if wg.sg, err = eng.Prepare("sg(X, Y)"); err != nil {
			return err
		}
		// Warm-up round.
		if _, err := wg.tc.Execute(); err != nil {
			return err
		}
		if _, err := wg.sg.Execute(); err != nil {
			return err
		}
		if g == 0 {
			w.edges = append(pairRows(edges), pairRows(parent)...)
		}
	}
	return nil
}

func (w *recursionWide) plan() {
	w.order = w.order[:0]
	for i := 0; i < wideBlock; i++ {
		w.order = append(w.order, w.next%len(w.graphs))
		w.next++
	}
	w.gotTC = make([]*gluenail.Result, len(w.order))
	w.gotSG = make([]*gluenail.Result, len(w.order))
	w.errs = make([]error, len(w.order))
}

func (w *recursionWide) run(rec *recorder) (int, int) {
	nrows := 0
	for i, g := range w.order {
		wg := w.graphs[g]
		w.e.opBegin()
		start := time.Now()
		tc, err := wg.tc.Execute()
		if err == nil {
			w.gotSG[i], err = wg.sg.Execute()
		}
		rec.reads = append(rec.reads, ms(time.Since(start)))
		w.e.opEnd()
		w.gotTC[i], w.errs[i] = tc, err
		if err == nil {
			nrows += len(tc.Rows) + len(w.gotSG[i].Rows)
		}
	}
	return len(w.order), nrows
}

func (w *recursionWide) check(rec *recorder) {
	for i, g := range w.order {
		wg := w.graphs[g]
		if w.errs[i] != nil {
			rec.fail("round on graph %d: %v", g, w.errs[i])
			rec.digests = append(rec.digests, 0, 0)
			continue
		}
		checkResult(rec, fmt.Sprintf("tc(X,Y) on graph %d", g), w.gotTC[i], nil, wg.wantTC)
		checkResult(rec, fmt.Sprintf("sg(X,Y) on graph %d", g), w.gotSG[i], nil, wg.wantSG)
	}
}

func (w *recursionWide) finish(*recorder) {}

func (w *recursionWide) close() error {
	var first error
	for _, g := range w.graphs {
		if err := g.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *recursionWide) info() map[string]any {
	tc, sg := 0, 0
	for _, g := range w.graphs {
		tc += len(g.wantTC)
		sg += len(g.wantSG)
	}
	return map[string]any{
		"clients": 1, "loop": "closed", "store": "mem", "durable": false,
		"graphs": len(w.graphs), "digraph": fmt.Sprintf("%d layers x width, out-degree %d", wideLayers, wideDegree),
		"tree":                   fmt.Sprintf("branching %d", wideBranching),
		"mean_tc_rows_per_round": tc / len(w.graphs), "mean_sg_rows_per_round": sg / len(w.graphs),
		"ops_per_window": wideBlock,
		"one_op":         "one round: Execute tc(X,Y) then sg(X,Y) on the next pre-built graph",
		"rows_per_s":     "derived (= returned) tuples per second",
	}
}

func (w *recursionWide) layers() layerInput {
	engines := make([]engine, len(w.graphs))
	for i, g := range w.graphs {
		engines[i] = g.eng
	}
	return layerInput{engines: engines, tuples: anyTuples(w.edges),
		sources: []string{tcProgram + sgProgram}, goals: []string{"tc(X, Y)", "sg(X, Y)"}}
}
