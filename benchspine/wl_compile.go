package main

import (
	_ "embed"
	"sort"
	"strings"
	"time"

	"gluenail"
)

// The example programs, copied from examples/*/main.go at the commit that
// defined the benchmark, so the benchmark's inputs do not move when the
// examples do.
var (
	//go:embed programs/quickstart.glue
	quickstartProgram string
	//go:embed programs/flights.glue
	flightsProgram string
	//go:embed programs/registrar.glue
	registrarProgram string
	//go:embed programs/warehouse.glue
	warehouseProgram string
)

// Facts appended to the sources that declare their relations, so loading
// exercises fact extraction and the first query has an answer.
const (
	edgeFacts   = "\nedge(1,2). edge(2,3). edge(3,1). edge(3,4).\n"
	flightFacts = "\nflight(sfo, jfk, 2586, aa). flight(jfk, lhr, 3451, ba).\n"
)

const (
	compileStmts = 1000
	compileBlock = 8
)

// declaredProcs are the procedures the example programs declare, read off
// their sources by hand; the synthetic module's come from its generator.
var declaredProcs = []string{"example.select", "main.hops", "main.process", "main.set_eq", "main.tc_e"}

// compileLoad: one op is a fresh system, the load of every example program
// plus a synthetic module, and the first Prepare, which links and compiles
// everything. Execution does nothing.
type compileLoad struct {
	e        *env
	sources  []string
	declared []string
	facts    int
	engines  []engine // this block's systems, open until checked
	preps    []prepared
	errs     []error
	closed   sysTotals
	last     engine // kept open for the probes
}

func (w *compileLoad) setup(e *env) error {
	w.e = e
	n := e.size(compileStmts)
	if n < 8 {
		n = 8
	}
	synth := syntheticProgram(n)
	w.sources = []string{quickstartProgram + edgeFacts, flightsProgram + flightFacts, registrarProgram,
		warehouseProgram, cadProgram, synth}
	w.declared = append(append([]string(nil), declaredProcs...), syntheticProcs(n)...)
	sort.Strings(w.declared)
	w.facts = strings.Count(edgeFacts+flightFacts, ").")
	if err := warmUp(w); err != nil {
		return err
	}
	return nil
}

func (w *compileLoad) plan() {
	w.engines = make([]engine, compileBlock)
	w.preps = make([]prepared, compileBlock)
	w.errs = make([]error, compileBlock)
}

// one is the timed operation.
func (w *compileLoad) one() (engine, prepared, error) {
	eng, err := openEngine(engineConfig{fs: w.e.fs}, w.e.tr)
	if err != nil {
		return nil, nil, err
	}
	pass := func(in [][]gluenail.Value) ([][]gluenail.Value, error) { return in, nil }
	none := func(in [][]gluenail.Value) ([][]gluenail.Value, error) { return nil, nil }
	if err := eng.Register("event", 0, 2, true, none); err != nil {
		return eng, nil, err
	}
	if err := eng.Register("highlight", 1, 0, true, pass); err != nil {
		return eng, nil, err
	}
	if err := eng.Register("dehighlight", 1, 0, true, pass); err != nil {
		return eng, nil, err
	}
	for _, src := range w.sources {
		if err := eng.Load(src); err != nil {
			return eng, nil, err
		}
	}
	p, err := eng.Prepare("tc(1, X)")
	return eng, p, err
}

func (w *compileLoad) run(rec *recorder) (int, int) {
	nrows := 0
	for i := range w.engines {
		w.e.opBegin()
		start := time.Now()
		w.engines[i], w.preps[i], w.errs[i] = w.one()
		rec.reads = append(rec.reads, ms(time.Since(start)))
		w.e.opEnd()
		if w.errs[i] == nil {
			nrows += w.facts
		}
	}
	return len(w.engines), nrows
}

// check holds each fresh system to the oracle: every declared procedure
// was compiled, and the prepared query answers with the closed form of the
// loaded facts. Then it closes the system.
func (w *compileLoad) check(rec *recorder) {
	for i, eng := range w.engines {
		if w.errs[i] != nil {
			rec.fail("load and prepare: %v", w.errs[i])
			rec.digests = append(rec.digests, 0)
		} else {
			ids, err := eng.Procs()
			if err != nil {
				rec.fail("Procs: %v", err)
			}
			have := map[string]bool{}
			user := 0
			for _, id := range ids {
				have[id] = true
				if !strings.ContainsAny(id, "@$") {
					user++
				}
			}
			for _, id := range w.declared {
				if !have[id] {
					rec.fail("declared procedure %s was not compiled", id)
					break
				}
			}
			if user != len(w.declared) {
				rec.fail("%d user procedures compiled, the sources declare %d", user, len(w.declared))
			}
			if !have["main.tc@bf"] {
				rec.fail("tc(1, X) did not generate main.tc@bf")
			}
			res, err := w.preps[i].Execute()
			checkResult(rec, "tc(1, X) on the loaded facts", res, err, rows{{1}, {2}, {3}, {4}})
		}
		if eng == nil {
			continue
		}
		if w.last != nil {
			w.closed.add(w.last)
			if err := w.last.Close(); err != nil {
				rec.fail("close: %v", err)
			}
		}
		w.last = eng
	}
	w.engines = nil
}

func (w *compileLoad) finish(*recorder) {}

func (w *compileLoad) close() error {
	if w.last == nil {
		return nil
	}
	return w.last.Close()
}

func (w *compileLoad) info() map[string]any {
	lines := 0
	for _, s := range w.sources {
		lines += strings.Count(s, "\n")
	}
	return map[string]any{
		"clients": 1, "loop": "closed", "store": "mem", "durable": false,
		"programs": len(w.sources), "source_lines": lines, "declared_procs": len(w.declared),
		"ops_per_window": compileBlock,
		"one_op":         "New + Register x3 + Load of 6 sources + first Prepare (link, compile every procedure, build the machine)",
		"rows_per_s":     "EDB facts extracted from the sources per second",
	}
}

func (w *compileLoad) layers() layerInput {
	in := layerInput{closed: w.closed, sources: w.sources, goals: []string{"tc(1, X)"},
		tuples: anyTuples([][]any{{1, 2}, {2, 3}, {3, 1}, {3, 4}})}
	if w.last != nil {
		in.engines = []engine{w.last}
	}
	return in
}
