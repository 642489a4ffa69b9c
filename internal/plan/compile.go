package plan

import (
	"fmt"
	"strings"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/nail"
	"gluenail/internal/term"
)

// Error is a compile-time error with source context.
type Error struct {
	Module string
	Pos    ast.Pos
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("module %s: %d:%d: %s", e.Module, e.Pos.Line, e.Pos.Col, e.Msg)
}

// Compiler compiles a linked program into executable plans. NAIL!
// predicates are compiled to Glue procedures on demand, per binding pattern
// (adornment), with magic-set rewriting when the pattern has bound
// arguments.
type Compiler struct {
	lp     *modsys.Program
	opts   Options
	prog   *Program
	fixed  map[string]bool // "module.proc" -> fixed
	inFly  map[string]bool // NAIL! procs being generated (cycle detection)
	queryN int
}

// NewCompiler returns a compiler over the linked program.
func NewCompiler(lp *modsys.Program, opts Options) *Compiler {
	return &Compiler{
		lp:    lp,
		opts:  opts,
		prog:  &Program{Procs: make(map[string]*Proc)},
		fixed: make(map[string]bool),
		inFly: make(map[string]bool),
	}
}

// Program returns the compiled program (grows as queries are compiled).
func (c *Compiler) Program() *Program { return c.prog }

// CompileAll compiles every procedure of every module.
func (c *Compiler) CompileAll() error {
	c.computeFixedness()
	for _, modName := range c.lp.Order {
		lm := c.lp.Modules[modName]
		for _, proc := range lm.AST.Procs {
			if _, err := c.compileProc(modName, proc, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompileQuery compiles a goal conjunction as a transient procedure in the
// given module's scope. It returns the procedure ID and the answer-variable
// names in first-occurrence order.
func (c *Compiler) CompileQuery(module string, goals []ast.Goal) (string, []string, error) {
	if c.lp.Modules[module] == nil {
		return "", nil, fmt.Errorf("plan: unknown module %q", module)
	}
	vars := goalVars(goals)
	c.queryN++
	name := fmt.Sprintf("$query%d", c.queryN)
	proc := &ast.Proc{Name: name, FreeParams: vars}
	head := &ast.AtomTerm{Pred: constStr("return")}
	for _, v := range vars {
		head.Args = append(head.Args, &ast.VarTerm{Name: v})
	}
	proc.Body = []ast.Stmt{&ast.Assign{
		Op: ast.OpAssign, Head: head, IsReturn: true, HeadBound: 0, Body: goals, Query: true,
	}}
	id, err := c.compileProc(module, proc, "")
	return id, vars, err
}

// goalVars returns named variables in first-occurrence order.
func goalVars(goals []ast.Goal) []string {
	var order []string
	seen := map[string]bool{}
	add := func(name string) {
		if name == "" || name == "_" || seen[name] {
			return
		}
		seen[name] = true
		order = append(order, name)
	}
	var walkTerm func(t ast.Term)
	walkTerm = func(t ast.Term) {
		switch t := t.(type) {
		case *ast.VarTerm:
			add(t.Name)
		case *ast.CompTerm:
			walkTerm(t.Fn)
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walkExpr func(e ast.Expr)
	walkExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.TermExpr:
			walkTerm(e.T)
		case *ast.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *ast.NegExpr:
			walkExpr(e.X)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	for _, g := range goals {
		switch g := g.(type) {
		case *ast.AtomGoal:
			walkTerm(g.Atom.Pred)
			for _, a := range g.Atom.Args {
				walkTerm(a)
			}
		case *ast.CmpGoal:
			walkExpr(g.L)
			walkExpr(g.R)
		case *ast.AggGoal:
			walkTerm(g.Arg)
			add(g.Var)
		case *ast.GroupByGoal:
			for _, v := range g.Vars {
				add(v)
			}
		}
	}
	return order
}

func constStr(s string) *ast.Const {
	return &ast.Const{Val: term.Intern(s)}
}

// computeFixedness runs the call-graph fixpoint of §3.1: a procedure is
// fixed if it performs I/O, updates a non-local relation, contains an
// update subgoal, or calls a fixed procedure.
func (c *Compiler) computeFixedness() {
	type procInfo struct {
		module string
		proc   *ast.Proc
	}
	var all []procInfo
	for _, modName := range c.lp.Order {
		for _, p := range c.lp.Modules[modName].AST.Procs {
			all = append(all, procInfo{modName, p})
		}
	}
	changed := true
	for changed {
		changed = false
		for _, pi := range all {
			key := pi.module + "." + pi.proc.Name
			if c.fixed[key] {
				continue
			}
			if c.procLooksFixed(pi.module, pi.proc) {
				c.fixed[key] = true
				changed = true
			}
		}
	}
}

func (c *Compiler) procLooksFixed(module string, proc *ast.Proc) bool {
	locals := map[string]bool{}
	for _, l := range proc.Locals {
		locals[l.Name] = true
	}
	goalFixed := func(g ast.Goal) bool {
		ag, ok := g.(*ast.AtomGoal)
		if !ok {
			return false
		}
		if ag.Update != ast.UpdateNone {
			// Updates to locals are frame-private; anything else is an
			// EDB side effect.
			return !locals[ag.Atom.PredName()]
		}
		name := ag.Atom.PredName()
		if name == "" || locals[name] || name == "in" {
			return false
		}
		if sym := c.lp.Resolve(module, name); sym != nil {
			return sym.Class == modsys.ClassProc && c.fixed[sym.Module+"."+sym.Name]
		}
		if c.opts.Builtin != nil {
			if sig, ok := c.opts.Builtin(name); ok {
				return sig.Fixed
			}
		}
		return false
	}
	var stmtsFixed func(stmts []ast.Stmt) bool
	stmtsFixed = func(stmts []ast.Stmt) bool {
		for _, st := range stmts {
			switch st := st.(type) {
			case *ast.Assign:
				if !st.IsReturn {
					name := st.Head.PredName()
					// HiLog heads and non-local simple heads hit the EDB.
					if name == "" || !locals[name] {
						return true
					}
				}
				for _, g := range st.Body {
					if goalFixed(g) {
						return true
					}
				}
			case *ast.Repeat:
				if stmtsFixed(st.Body) {
					return true
				}
				for _, alt := range st.Until {
					for _, g := range alt {
						if goalFixed(g) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	return stmtsFixed(proc.Body)
}

// compileProc compiles one procedure; id overrides the default module.name
// procedure ID (used for generated NAIL! procedures).
func (c *Compiler) compileProc(module string, proc *ast.Proc, id string) (string, error) {
	if id == "" {
		id = module + "." + proc.Name
	}
	if _, done := c.prog.Procs[id]; done {
		return id, nil
	}
	p := &Proc{
		ID:     id,
		Module: module,
		Name:   proc.Name,
		Bound:  len(proc.BoundParams),
		Free:   len(proc.FreeParams),
		Fixed:  c.fixed[module+"."+proc.Name],
	}
	for _, l := range proc.Locals {
		p.Locals = append(p.Locals, LocalDecl{Name: l.Name, Arity: l.Arity()})
	}
	// Install before compiling the body so recursive references resolve.
	c.prog.mu.Lock()
	c.prog.Procs[id] = p
	c.prog.mu.Unlock()
	pc := &procCompiler{
		c:      c,
		module: module,
		proc:   proc,
		locals: map[string]localSlot{},
		deltas: map[string]localSlot{},
	}
	for i, l := range p.Locals {
		pc.locals[l.Name] = localSlot{slot: SlotLocals + i, arity: l.Arity}
	}
	body, err := pc.compileStmts(proc.Body)
	if err != nil {
		c.prog.mu.Lock()
		delete(c.prog.Procs, id)
		c.prog.mu.Unlock()
		return "", err
	}
	markMoves(body, body)
	p.Body = body
	return id, nil
}

// nailProcID names a generated NAIL! procedure.
func nailProcID(module, pred, adorn string) string {
	return module + "." + pred + "@" + adorn
}

// requestNail ensures the generated procedure for (sym, adornment) exists.
// It returns the procedure ID and the effective adornment, which may be
// all-free when magic-set rewriting is disabled. The adornment has one
// 'b'/'f' per value argument; families are always requested all-free over
// name+value arguments.
func (c *Compiler) requestNail(sym *modsys.Symbol, adorn string) (string, string, error) {
	if c.opts.NoMagic {
		adorn = strings.Repeat("f", len(adorn))
	}
	id := nailProcID(sym.Module, sym.Name, adorn)
	if _, done := c.prog.Procs[id]; done {
		return id, adorn, nil
	}
	if c.inFly[id] {
		return "", "", fmt.Errorf(
			"plan: cross-module NAIL! recursion through %s.%s is not supported",
			sym.Module, sym.Name)
	}
	c.inFly[id] = true
	defer delete(c.inFly, id)
	gen, err := nail.Generate(c.lp, sym, adorn, nail.Options{
		Magic:     !c.opts.NoMagic,
		SemiNaive: !c.opts.Naive,
	})
	if err != nil {
		return "", "", err
	}
	id, err = c.compileProc(sym.Module, gen, id)
	return id, adorn, err
}

// requestFamily ensures the all-free flat procedure for a HiLog family.
func (c *Compiler) requestFamily(sym *modsys.Symbol) (string, error) {
	id, _, err := c.requestNail(sym, strings.Repeat("f", sym.NameArity+sym.Free))
	return id, err
}
