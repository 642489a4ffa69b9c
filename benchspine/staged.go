package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gluenail"
	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	_ "gluenail/internal/storage/disk" // registers the "disk" backend
	"gluenail/internal/term"
	"gluenail/internal/vm"
	"gluenail/internal/wal"
)

// staged plays the root gluenail.System's role step by step — parse, link,
// compile, execute, commit — calling each layer's public functions directly
// with a span around every call, so the traced run attributes time to
// layers without any change to the product. It mirrors System's default
// configuration (plan cache on, batch kernels on, adaptive indexes,
// statistics ordering, loop limit 1e6, default depth limit, WAL
// fsync=batch); parity_test.go holds it to byte-identical answers.
type staged struct {
	tr  *tracer
	cfg engineConfig
	// mu mirrors System.mu: every public operation takes it, so the api
	// layer's self time includes the uncontended lock.
	mu       sync.Mutex
	registry *vm.Registry
	edb      storage.Store
	eng      storage.Backend
	temp     storage.Store
	sources  []string
	compiled bool
	machine  *vm.Machine
	compiler *plan.Compiler
	lp       *modsys.Program
	queries  map[string]stagedQuery
	wlog     *wal.Log
	recorder *wal.Recorder
	// userBytes totals the encoded size of tuples handed to Assert: the
	// denominator of the write-amplification metrics.
	userBytes int64
}

type stagedQuery struct {
	id   string
	vars []string
}

func openStaged(cfg engineConfig, tr *tracer) (*staged, error) {
	s := &staged{tr: tr, cfg: cfg, registry: vm.NewRegistry()}
	name := cfg.backend
	if name == "" {
		name = "mem"
	}
	var dir string
	if cfg.dir != "" && name != "mem" {
		dir = filepath.Join(cfg.dir, "store")
	}
	bcfg := storage.BackendConfig{Dir: dir, Policy: storage.IndexAdaptive, CacheBlocks: cfg.cacheBlocks}
	wopts := wal.Options{CheckpointBytes: cfg.ckptBytes}
	if cfg.fs != nil {
		bcfg.FS, wopts.FS = cfg.fs, cfg.fs
	}
	sp := tr.begin("disk", "open")
	st, err := storage.OpenBackend(name, bcfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("staged: opening %s backend: %w", name, err)
	}
	s.edb, s.eng = st, st
	s.temp = storage.NewMemStore(storage.IndexAdaptive)
	if cfg.dir != "" {
		sp := tr.begin("wal", "replay")
		log, err := wal.Open(cfg.dir, s.edb, wopts)
		tr.end(sp)
		if err != nil {
			_ = st.Close()
			return nil, fmt.Errorf("staged: opening WAL in %s: %w", cfg.dir, err)
		}
		s.wlog = log
		s.recorder = wal.NewRecorder()
		s.edb.SetJournal(s.recorder)
	}
	return s, nil
}

// commit mirrors System.commit: seal the journaled deltas into one WAL
// batch, checkpoint when the log has grown past the threshold, advance the
// commit sequence number.
func (s *staged) commit() error {
	if s.wlog != nil {
		if ops := s.recorder.Take(); len(ops) > 0 {
			sp := s.tr.begin("wal", "commit")
			err := s.wlog.Commit(ops)
			s.tr.end(sp)
			if err != nil {
				return err
			}
			if s.wlog.ShouldCheckpoint() {
				if err := s.checkpoint(); err != nil {
					return err
				}
			}
		}
	}
	s.eng.AdvanceCSN()
	return nil
}

func (s *staged) checkpoint() error {
	sp := s.tr.begin("wal", "checkpoint")
	defer s.tr.end(sp)
	return s.wlog.Checkpoint(s.edb)
}

func (s *staged) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.wlog != nil {
		err = s.commit()
		if cerr := s.wlog.Close(); err == nil {
			err = cerr
		}
		s.edb.SetJournal(nil)
		s.wlog, s.recorder = nil, nil
	}
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *staged) Register(name string, bound, free int, fixed bool, fn foreignFn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.registry.Register(name, plan.BuiltinSig{Bound: bound, Free: free, Fixed: fixed},
		func(_ *vm.Machine, in []term.Tuple) ([]term.Tuple, error) {
			rows := make([][]gluenail.Value, len(in))
			for i, t := range in {
				rows[i] = []gluenail.Value(t)
			}
			out, err := fn(rows)
			if err != nil {
				return nil, err
			}
			res := make([]term.Tuple, len(out))
			for i, r := range out {
				res[i] = term.Tuple(r)
			}
			return res, nil
		})
	if err != nil {
		return err
	}
	s.compiled = false
	return nil
}

func (s *staged) parse(src string) (*ast.Program, error) {
	sp := s.tr.begin("parser", "parse")
	defer s.tr.end(sp)
	return parser.Parse(src)
}

func (s *staged) Load(src string) error {
	root := s.tr.begin("api", "load")
	defer s.tr.end(root)
	if _, err := s.parse(src); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, src)
	s.compiled = false
	return nil
}

// ensure mirrors System.ensure: parse every source, load module-declared
// facts, link, compile every procedure, build the machine.
func (s *staged) ensure() error {
	if s.compiled {
		return nil
	}
	root := s.tr.begin("api", "ensure")
	defer s.tr.end(root)
	prog := &ast.Program{}
	var mainMod *ast.Module
	for _, src := range s.sources {
		p, err := s.parse(src)
		if err != nil {
			return err
		}
		for _, m := range p.Modules {
			sp := s.tr.begin("storage", "load_facts")
			for _, fact := range modsys.ExtractEDBFacts(m) {
				s.edb.Ensure(term.Intern(fact.Name), len(fact.Tuple)).Insert(fact.Tuple)
			}
			s.tr.end(sp)
			if m.Name == "main" {
				if mainMod == nil {
					mainMod = m
					prog.Modules = append(prog.Modules, m)
				} else {
					mainMod.EDB = append(mainMod.EDB, m.EDB...)
					mainMod.Exports = append(mainMod.Exports, m.Exports...)
					mainMod.Imports = append(mainMod.Imports, m.Imports...)
					mainMod.Procs = append(mainMod.Procs, m.Procs...)
					mainMod.Rules = append(mainMod.Rules, m.Rules...)
				}
				continue
			}
			prog.Modules = append(prog.Modules, m)
		}
	}
	if len(prog.Modules) == 0 {
		prog.Modules = append(prog.Modules, &ast.Module{Name: "main"})
	}
	if err := s.commit(); err != nil {
		return err
	}
	sp := s.tr.begin("modsys", "link")
	lp, err := modsys.LinkWith(prog, modsys.Options{Known: s.registry.Has})
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("plan", "compile_all")
	compiler := plan.NewCompiler(lp, plan.Options{Builtin: s.registry.Sig})
	err = compiler.CompileAll()
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.lp, s.compiler = lp, compiler
	m := vm.New(compiler.Program(), s.edb, s.temp, s.registry)
	m.LoopLimit = 1_000_000
	m.MaxDepth = vm.DefaultMaxDepth
	m.Out = io.Discard
	m.In = bufio.NewReader(strings.NewReader(""))
	m.Commit = s.commit
	if s.recorder != nil {
		m.Abort = s.recorder.Discard
	}
	s.machine = m
	s.queries = make(map[string]stagedQuery)
	s.compiled = true
	return nil
}

func (s *staged) prepareQuery(goals string) (string, []string, error) {
	key := "main\x00" + goals
	cq, cached := s.queries[key]
	if !cached {
		sp := s.tr.begin("parser", "parse_goals")
		gs, err := parser.ParseGoals(goals)
		s.tr.end(sp)
		if err != nil {
			return "", nil, err
		}
		sp = s.tr.begin("plan", "compile_query")
		id, vars, err := s.compiler.CompileQuery("main", gs)
		s.tr.end(sp)
		if err != nil {
			return "", nil, err
		}
		cq = stagedQuery{id: id, vars: vars}
		s.queries[key] = cq
	}
	return cq.id, cq.vars, nil
}

func (s *staged) exec(id string, in []term.Tuple) ([]term.Tuple, error) {
	sp := s.tr.begin("vm", "exec")
	defer s.tr.end(sp)
	return s.machine.CallProcContext(context.Background(), id, in)
}

func (s *staged) runQueryProc(id string, vars []string) (*gluenail.Result, error) {
	tuples, err := s.exec(id, []term.Tuple{{}})
	if err != nil {
		return nil, err
	}
	res := &gluenail.Result{Vars: vars}
	sorted := make([]term.Tuple, len(tuples))
	copy(sorted, tuples)
	sortTuples(sorted)
	for _, t := range sorted {
		res.Rows = append(res.Rows, []gluenail.Value(t))
	}
	return res, nil
}

func (s *staged) Query(goals string) (*gluenail.Result, error) {
	root := s.tr.begin("api", "query")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	id, vars, err := s.prepareQuery(goals)
	if err != nil {
		return nil, err
	}
	return s.runQueryProc(id, vars)
}

type stagedPrepared struct {
	s    *staged
	id   string
	vars []string
}

func (s *staged) Prepare(goals string) (prepared, error) {
	root := s.tr.begin("api", "prepare")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	id, vars, err := s.prepareQuery(goals)
	if err != nil {
		return nil, err
	}
	return &stagedPrepared{s: s, id: id, vars: vars}, nil
}

// Execute mirrors Prepared.Execute. The workloads never Load after
// preparing, so the re-prepare-on-recompile branch has no counterpart.
func (p *stagedPrepared) Execute() (*gluenail.Result, error) {
	s := p.s
	root := s.tr.begin("api", "execute")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	return s.runQueryProc(p.id, p.vars)
}

func (s *staged) Call(module, proc string, in ...[]any) ([][]gluenail.Value, error) {
	root := s.tr.begin("api", "call")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	sym := s.lp.Resolve(module, proc)
	if sym == nil || sym.Class != modsys.ClassProc {
		return nil, fmt.Errorf("staged: no procedure %s.%s", module, proc)
	}
	var tuples []term.Tuple
	if sym.Bound == 0 {
		tuples = []term.Tuple{{}}
	}
	for _, row := range in {
		t, err := toTuple(row)
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, t)
	}
	results, err := s.exec(sym.Module+"."+proc, tuples)
	if err != nil {
		return nil, err
	}
	sortTuples(results)
	out := make([][]gluenail.Value, len(results))
	for i, t := range results {
		out[i] = []gluenail.Value(t)
	}
	return out, nil
}

// Assert mirrors System.Assert, including the WAL-fenced bulk path for
// batches of storage.BulkThreshold rows or more. The workloads assert
// plain relation names with rows of one arity.
func (s *staged) Assert(relation any, rows ...[]any) error {
	root := s.tr.begin("api", "assert")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	name, err := toValue(relation)
	if err != nil {
		return err
	}
	batch := make([]term.Tuple, len(rows))
	for i, row := range rows {
		t, err := toTuple(row)
		if err != nil {
			return err
		}
		if s.lp != nil && name.Kind() == term.Str {
			if sym := s.lp.Resolve("main", name.Str()); sym != nil &&
				sym.Class == modsys.ClassEDB && sym.Arity() != len(t) {
				return fmt.Errorf("staged: %s is declared with arity %d, asserted tuple has %d",
					name.Str(), sym.Arity(), len(t))
			}
		}
		batch[i] = t
		s.userBytes += int64(t.EncodedSize())
	}
	if len(batch) == 0 {
		return s.commit()
	}
	arity := len(batch[0])
	if bulk, ok := s.edb.(storage.BulkLoader); ok && len(batch) >= storage.BulkThreshold {
		if s.wlog != nil {
			if err := s.commit(); err != nil {
				return err
			}
			if err := s.checkpoint(); err != nil {
				return err
			}
		}
		sp := s.tr.begin("disk", "bulk_load")
		_, err := bulk.BulkLoad(name, arity, batch)
		s.tr.end(sp)
		if err != nil {
			return err
		}
		if s.wlog != nil {
			if err := s.checkpoint(); err != nil {
				return err
			}
		}
		return s.commit()
	}
	sp := s.tr.begin("storage", "insert")
	rel := s.edb.Ensure(name, arity)
	for _, t := range batch {
		rel.Insert(t)
	}
	s.tr.end(sp)
	return s.commit()
}

func (s *staged) Retract(relation any, rows ...[]any) error {
	root := s.tr.begin("api", "retract")
	defer s.tr.end(root)
	s.mu.Lock()
	defer s.mu.Unlock()
	name, err := toValue(relation)
	if err != nil {
		return err
	}
	for _, row := range rows {
		t, err := toTuple(row)
		if err != nil {
			return err
		}
		if rel, ok := s.edb.Get(name, len(t)); ok {
			sp := s.tr.begin("storage", "delete")
			rel.Delete(t)
			s.tr.end(sp)
		}
	}
	return s.commit()
}

func (s *staged) Relation(relation any, arity int) ([][]gluenail.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name, err := toValue(relation)
	if err != nil {
		return nil, err
	}
	rel, ok := s.edb.Get(name, arity)
	if !ok {
		return nil, nil
	}
	tuples := storage.Sorted(rel)
	out := make([][]gluenail.Value, len(tuples))
	for i, t := range tuples {
		out[i] = []gluenail.Value(t)
	}
	return out, nil
}

func (s *staged) Procs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensure(); err != nil {
		return nil, err
	}
	var ids []string
	for id := range s.compiler.Program().Procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

func (s *staged) Stats() gluenail.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := gluenail.Stats{EDB: *s.edb.Stats(), Scratch: *s.temp.Stats()}
	if s.machine != nil {
		st.Exec = s.machine.Stats
	}
	return st
}

func (s *staged) PlanCacheStats() gluenail.PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.machine == nil {
		return gluenail.PlanCacheStats{}
	}
	return s.machine.PlanCacheStats()
}

func toValue(v any) (term.Value, error) {
	switch v := v.(type) {
	case term.Value:
		return v, nil
	case int:
		return term.NewInt(int64(v)), nil
	case int64:
		return term.NewInt(v), nil
	case float64:
		return term.NewFloat(v), nil
	case string:
		return term.Intern(v), nil
	}
	return term.Value{}, fmt.Errorf("staged: cannot convert %T to a value", v)
}

func toTuple(row []any) (term.Tuple, error) {
	t := make(term.Tuple, len(row))
	for i, v := range row {
		val, err := toValue(v)
		if err != nil {
			return nil, err
		}
		t[i] = val
	}
	return t, nil
}

func sortTuples(ts []term.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
