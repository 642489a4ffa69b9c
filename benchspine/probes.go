package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"

	"gluenail/internal/ast"
	"gluenail/internal/lexer"
	"gluenail/internal/nail"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// probes are the numbers no span can give from outside: per-tuple costs of
// the in-memory layers, measured by calling them directly on the
// workload's own tuples, and the rule compiler timed on its own.
type probes struct {
	tokensPerS, goalsParseUS       float64
	nailMS, nailProcs, nailStmts   float64
	irStmts                        float64
	hashNS, internNS               float64
	encodeMBs, decodeMBs           float64
	insertNS, lookupNS, containsNS float64
	snapshotUS                     float64
}

var probeSink uint64

func runProbes(in layerInput) probes {
	var p probes
	// Lexer throughput over the workload's sources.
	if len(in.sources) > 0 {
		tokens := 0
		start := time.Now()
		for rep := 0; rep < 20; rep++ {
			for _, src := range in.sources {
				toks, err := lexer.Tokenize(src)
				if err == nil {
					tokens += len(toks)
				}
			}
		}
		p.tokensPerS = ratio(float64(tokens), time.Since(start).Seconds())
	}
	if len(in.goals) > 0 {
		n := 0
		start := time.Now()
		for rep := 0; rep < 200; rep++ {
			for _, g := range in.goals {
				if _, err := parser.ParseGoals(g); err == nil {
					n++
				}
			}
		}
		p.goalsParseUS = ratio(us(time.Since(start)), float64(n))
	}
	for _, e := range in.engines {
		if s, ok := e.(*staged); ok && s.compiler != nil {
			p.nailMS, p.nailProcs, p.nailStmts = probeNail(s)
			p.irStmts = float64(countIR(s.compiler.Program()))
			break
		}
	}
	ts := in.tuples
	if len(ts) == 0 {
		return p
	}
	const reps = 5
	// term: hashing, interning, codec.
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, t := range ts {
			probeSink += t.Hash()
		}
	}
	p.hashNS = ratio(float64(time.Since(start)), float64(reps*len(ts)))
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = "a" + t[0].String()
	}
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, s := range names {
			probeSink += term.Intern(s).Hash()
		}
	}
	p.internNS = ratio(float64(time.Since(start)), float64(reps*len(names)))
	var buf bytes.Buffer
	start = time.Now()
	for _, t := range ts {
		_ = term.WriteTuple(&buf, t)
	}
	encoded := buf.Len()
	p.encodeMBs = ratio(float64(encoded)/1e6, time.Since(start).Seconds())
	rd := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	start = time.Now()
	for range ts {
		if _, err := term.ReadTuple(rd); err != nil {
			break
		}
	}
	p.decodeMBs = ratio(float64(encoded)/1e6, time.Since(start).Seconds())
	// storage: the main-memory relation's insert, keyed lookup, membership.
	store := storage.NewMemStore(storage.IndexAdaptive)
	byArity := map[int]storage.Rel{}
	start = time.Now()
	for _, t := range ts {
		rel := byArity[len(t)]
		if rel == nil {
			rel = store.Ensure(term.Intern(fmt.Sprint("probe", len(t))), len(t))
			byArity[len(t)] = rel
		}
		rel.Insert(t)
	}
	p.insertNS = ratio(float64(time.Since(start)), float64(len(ts)))
	start = time.Now()
	for _, t := range ts {
		byArity[len(t)].Lookup(1, t, func(term.Tuple) bool { probeSink++; return true })
	}
	p.lookupNS = ratio(float64(time.Since(start)), float64(len(ts)))
	start = time.Now()
	for _, t := range ts {
		if byArity[len(t)].Contains(t) {
			probeSink++
		}
	}
	p.containsNS = ratio(float64(time.Since(start)), float64(len(ts)))
	const snaps = 200
	start = time.Now()
	for i := 0; i < snaps; i++ {
		if store.Snapshot() != nil {
			probeSink++
		}
	}
	p.snapshotUS = us(time.Since(start)) / snaps
	return p
}

// probeNail times the NAIL!-to-Glue generator the way cmd/nailc drives it:
// one nail.Generate per generated procedure (symbol and adornment) of the
// compiled program.
func probeNail(s *staged) (msTotal, procs, stmts float64) {
	var total time.Duration
	for id := range s.compiler.Program().Procs {
		at := strings.LastIndexByte(id, '@')
		dot := strings.IndexByte(id, '.')
		if at < 0 || dot < 0 || dot > at {
			continue
		}
		module, pred, adorn := id[:dot], id[dot+1:at], id[at+1:]
		sym := s.lp.Resolve(module, pred)
		if sym == nil {
			continue
		}
		start := time.Now()
		proc, err := nail.Generate(s.lp, sym, adorn, nail.Options{Magic: true, SemiNaive: true})
		total += time.Since(start)
		if err != nil {
			continue
		}
		procs++
		stmts += float64(countStmts(proc.Body))
	}
	return ms(total), procs, stmts
}

func countStmts(body []ast.Stmt) int {
	n := 0
	for _, st := range body {
		n++
		if r, ok := st.(*ast.Repeat); ok {
			n += countStmts(r.Body)
		}
	}
	return n
}

func countIR(p *plan.Program) int {
	var walk func(instrs []plan.Instr) int
	walk = func(instrs []plan.Instr) int {
		n := 0
		for _, in := range instrs {
			switch in := in.(type) {
			case *plan.ExecStmt:
				n++
			case *plan.Loop:
				n += walk(in.Body)
			}
		}
		return n
	}
	total := 0
	for _, proc := range p.Procs {
		total += walk(proc.Body)
	}
	return total
}

// probeSnapshot times the product's System.Snapshot (capture plus private
// machine) on the first system of the untraced pass.
func probeSnapshot(engines []engine) float64 {
	for _, e := range engines {
		a, ok := e.(apiEngine)
		if !ok {
			continue
		}
		const n = 50
		start := time.Now()
		for i := 0; i < n; i++ {
			snap, err := a.System.Snapshot()
			if err != nil {
				return 0
			}
			_ = snap.Close()
		}
		return us(time.Since(start)) / n
	}
	return 0
}
