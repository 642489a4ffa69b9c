package plan

import (
	"fmt"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/term"
)

// procCompiler compiles the statements of one procedure.
type procCompiler struct {
	c      *Compiler
	module string
	proc   *ast.Proc
	locals map[string]localSlot // declared local name -> its frame slot
	sites  int                  // unchanged-site counter
	// deltas maps delta names to their locals; seen, a loop's (§5.28).
	deltas map[string]localSlot
	seen   map[string]bool
}

// localSlot is a declared local relation's frame slot and arity.
type localSlot struct{ slot, arity int }

func (pc *procCompiler) errf(pos ast.Pos, format string, args ...any) error {
	return &Error{Module: pc.module, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (pc *procCompiler) compileStmts(stmts []ast.Stmt) ([]Instr, error) {
	var out []Instr
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.Assign:
			s, err := pc.compileAssign(st)
			if err != nil {
				return nil, err
			}
			out = append(out, &ExecStmt{S: s})
		case *ast.Advance:
			l := pc.locals[st.Rel]
			pc.deltas[st.Delta] = l
			out = append(out, &Advance{Rel: RelRef{Space: SpaceLocal, Name: term.Ground(term.NewString(st.Rel)), Arity: l.arity, Slot: l.slot}})
		case *ast.Repeat:
			outer := pc.seen
			pc.seen = map[string]bool{}
			for _, in := range st.Body {
				if a, ok := in.(*ast.Advance); ok {
					pc.seen[a.Rel] = true
				}
			}
			body, err := pc.compileStmts(st.Body)
			pc.seen = outer
			if err != nil {
				return nil, err
			}
			loop := &Loop{Body: body}
			for _, alt := range st.Until {
				cond, err := pc.compileCond(alt)
				if err != nil {
					return nil, err
				}
				loop.Until = append(loop.Until, cond)
			}
			out = append(out, loop)
		}
	}
	return out, nil
}

// predRefKind classifies what a subgoal's predicate resolved to.
type predRefKind uint8

const (
	refLocal predRefKind = iota
	refEDB
	refProc
	refNail
	refBuiltin
	refDynamic
	refFamilyGround
)

type predRef struct {
	kind      predRefKind
	name      string     // simple name (local/EDB/builtin)
	nameVal   term.Value // ground relation name (EDB; may be compound)
	arity     int
	procID    string // refProc
	bound     int
	free      int
	procFixed bool
	variadic  bool
	sym       *modsys.Symbol // refNail / refFamilyGround
	slot      int            // refLocal: the relation's frame slot
	rng       Range          // refLocal: the rows a read sees
}

// relRef is the plan-level reference of a local or EDB predicate.
func (r *predRef) relRef() RelRef {
	if r.kind == refLocal {
		return RelRef{Space: SpaceLocal, Name: term.Ground(r.nameVal), Arity: r.arity, Slot: r.slot, Range: r.rng}
	}
	return RelRef{Space: SpaceEDB, Name: term.Ground(r.nameVal), Arity: r.arity}
}

// stmtCompiler compiles one assignment statement or condition.
type stmtCompiler struct {
	pc    *procCompiler
	regs  map[string]int
	nreg  int
	bound regSet
	steps []Step
	pipe  []PipeOp
}

func (pc *procCompiler) newStmtCompiler() *stmtCompiler {
	return &stmtCompiler{pc: pc, regs: map[string]int{}}
}

func (sc *stmtCompiler) reg(name string) int {
	if r, ok := sc.regs[name]; ok {
		return r
	}
	r := sc.nreg
	sc.regs[name] = r
	sc.nreg++
	return r
}

// pat compiles a source term to a pattern, allocating registers.
func (sc *stmtCompiler) pat(t ast.Term) term.Pattern {
	switch t := t.(type) {
	case *ast.Const:
		return term.Ground(t.Val)
	case *ast.VarTerm:
		if t.IsAnon() {
			return term.Wild()
		}
		return term.Var(sc.reg(t.Name))
	case *ast.CompTerm:
		args := make([]term.Pattern, len(t.Args))
		for i, a := range t.Args {
			args[i] = sc.pat(a)
		}
		return term.Comp(sc.pat(t.Fn), args...)
	}
	panic("plan: unknown term node")
}

func hasWild(p term.Pattern) bool {
	switch p.Kind {
	case term.PatWild:
		return true
	case term.PatComp:
		if hasWild(*p.Fn) {
			return true
		}
		for _, a := range p.Args {
			if hasWild(a) {
				return true
			}
		}
	}
	return false
}

// firstUnbound names an unbound variable of p for error messages.
func (sc *stmtCompiler) firstUnbound(ps ...term.Pattern) string {
	for _, p := range ps {
		if free := sc.bound.free(nil, p); len(free) > 0 {
			for name, reg := range sc.regs {
				if reg == free[0] {
					return name
				}
			}
		}
	}
	return "?"
}

// astGroundValue converts a fully ground source term to a value.
func astGroundValue(t ast.Term) (term.Value, bool) {
	switch t := t.(type) {
	case *ast.Const:
		return t.Val, true
	case *ast.CompTerm:
		fn, ok := astGroundValue(t.Fn)
		if !ok {
			return term.Value{}, false
		}
		args := make([]term.Value, len(t.Args))
		for i, a := range t.Args {
			v, ok := astGroundValue(a)
			if !ok {
				return term.Value{}, false
			}
			args[i] = v
		}
		return term.NewCompound(fn, args...), true
	}
	return term.Value{}, false
}

// resolveAtom classifies a subgoal predicate following the scope rules:
// locals (and in) hide module predicates, which hide builtins.
func (pc *procCompiler) resolveAtom(atom *ast.AtomTerm) (*predRef, error) {
	arity := len(atom.Args)
	switch pred := atom.Pred.(type) {
	case *ast.Const:
		if pred.Val.Kind() != term.Str {
			return nil, pc.errf(atom.Pos, "predicate name must be an atom, not %v", pred.Val)
		}
		name := pred.Val.Str()
		if name == "return" {
			return nil, pc.errf(atom.Pos, "the return relation cannot be read")
		}
		if name == "in" {
			want := len(pc.proc.BoundParams)
			if arity != want {
				return nil, pc.errf(atom.Pos, "in has arity %d, used with %d", want, arity)
			}
			return &predRef{kind: refLocal, name: "in", nameVal: term.NewString("in"), arity: arity, slot: SlotIn}, nil
		}
		l, ok := pc.locals[name]
		rng := RangeAll
		if d, delta := pc.deltas[name]; delta {
			l, ok, rng = d, true, RangeDelta
		} else if pc.seen[name] {
			rng = RangeSeen
		}
		if ok {
			if arity != l.arity {
				return nil, pc.errf(atom.Pos, "local relation %s has arity %d, used with %d", name, l.arity, arity)
			}
			return &predRef{kind: refLocal, name: name, nameVal: pred.Val, arity: arity, slot: l.slot, rng: rng}, nil
		}
		if sym := pc.c.lp.Resolve(pc.module, name); sym != nil {
			switch sym.Class {
			case modsys.ClassEDB:
				if arity != sym.Arity() {
					return nil, pc.errf(atom.Pos, "EDB relation %s has arity %d, used with %d", name, sym.Arity(), arity)
				}
				return &predRef{kind: refEDB, name: name, nameVal: pred.Val, arity: arity}, nil
			case modsys.ClassProc:
				if arity != sym.Arity() {
					return nil, pc.errf(atom.Pos, "procedure %s has arity %d, used with %d", name, sym.Arity(), arity)
				}
				return &predRef{
					kind: refProc, name: name, arity: arity,
					procID: sym.Module + "." + sym.Name,
					bound:  sym.Bound, free: sym.Free,
					procFixed: pc.c.fixed[sym.Module+"."+sym.Name],
				}, nil
			case modsys.ClassNail:
				if sym.NameArity > 0 {
					return nil, pc.errf(atom.Pos,
						"%s names a HiLog family %s(...)(...); apply it to %d name argument(s)",
						name, name, sym.NameArity)
				}
				if arity != sym.Arity() {
					return nil, pc.errf(atom.Pos, "NAIL! predicate %s has arity %d, used with %d", name, sym.Arity(), arity)
				}
				return &predRef{kind: refNail, name: name, arity: arity, sym: sym}, nil
			}
		}
		if pc.c.opts.Builtin != nil {
			if sig, ok := pc.c.opts.Builtin(name); ok {
				if !sig.Variadic && arity != sig.Bound+sig.Free {
					return nil, pc.errf(atom.Pos, "builtin %s has arity %d, used with %d", name, sig.Bound+sig.Free, arity)
				}
				return &predRef{
					kind: refBuiltin, name: name, arity: arity,
					bound: sig.Bound, free: sig.Free,
					procFixed: sig.Fixed, variadic: sig.Variadic,
				}, nil
			}
		}
		return nil, pc.errf(atom.Pos, "unknown predicate %s/%d", name, arity)
	case *ast.CompTerm:
		if nameVal, ok := astGroundValue(pred); ok {
			// Ground compound name: a NAIL! family instance or a stored
			// HiLog set relation.
			if fn, isConst := pred.Fn.(*ast.Const); isConst && fn.Val.Kind() == term.Str {
				if sym := pc.c.lp.Resolve(pc.module, fn.Val.Str()); sym != nil &&
					sym.Class == modsys.ClassNail && sym.NameArity == len(pred.Args) {
					if arity != sym.Free {
						return nil, pc.errf(atom.Pos, "family %s has value arity %d, used with %d",
							fn.Val.Str(), sym.Free, arity)
					}
					return &predRef{kind: refFamilyGround, arity: arity, sym: sym, nameVal: nameVal}, nil
				}
			}
			return &predRef{kind: refEDB, nameVal: nameVal, arity: arity}, nil
		}
		return &predRef{kind: refDynamic, arity: arity}, nil
	case *ast.VarTerm:
		if pred.IsAnon() {
			return nil, pc.errf(atom.Pos, "predicate position cannot be the anonymous variable")
		}
		return &predRef{kind: refDynamic, arity: arity}, nil
	}
	return nil, pc.errf(atom.Pos, "bad predicate term")
}

// dynCandidates computes the compile-time candidate set for a dynamic
// (HiLog) subgoal of the given arity: visible simple relation names plus
// NAIL! families with matching value arity (§5: "the scoping rules ... give
// the compiler a list of the predicates which a subgoal variable could
// possibly match").
func (pc *procCompiler) dynCandidates(arity int) (map[string]bool, []FamilyCand, error) {
	names := map[string]bool{}
	for name, l := range pc.locals {
		if l.arity == arity {
			names[name] = true
		}
	}
	if len(pc.proc.BoundParams) == arity {
		names["in"] = true
	}
	var fams []FamilyCand
	lm := pc.c.lp.Modules[pc.module]
	for name, sym := range lm.Visible {
		switch sym.Class {
		case modsys.ClassEDB:
			if sym.Arity() == arity {
				names[name] = true
			}
		case modsys.ClassNail:
			if sym.NameArity > 0 && sym.Free == arity {
				procID, err := pc.c.requestFamily(sym)
				if err != nil {
					return nil, nil, err
				}
				fams = append(fams, FamilyCand{
					Base: sym.Name, NameArity: sym.NameArity, ProcID: procID,
				})
			}
		}
	}
	return names, fams, nil
}

// unit is one body goal with its resolution, awaiting scheduling. An
// AtomGoal's predicate and argument patterns are compiled once, on first
// use (atomPats).
type unit struct {
	goal  ast.Goal
	ref   *predRef // AtomGoal only
	fixed bool
	idx   int
	pats  []term.Pattern // AtomGoal: predicate, then arguments
}

// atomPats returns an atom goal's predicate and argument patterns,
// compiling them, predicate first, on the first call.
func (sc *stmtCompiler) atomPats(u *unit) (term.Pattern, []term.Pattern) {
	if u.pats == nil {
		atom := u.goal.(*ast.AtomGoal).Atom
		u.pats = make([]term.Pattern, 1+len(atom.Args))
		u.pats[0] = sc.pat(atom.Pred)
		for i, a := range atom.Args {
			u.pats[1+i] = sc.pat(a)
		}
	}
	return u.pats[0], u.pats[1:]
}

func (pc *procCompiler) buildUnits(goals []ast.Goal) ([]unit, error) {
	units := make([]unit, 0, len(goals))
	for i, g := range goals {
		u := unit{goal: g, idx: i}
		switch g := g.(type) {
		case *ast.AtomGoal:
			ref, err := pc.resolveAtom(g.Atom)
			if err != nil {
				return nil, err
			}
			u.ref = ref
			if g.Update != ast.UpdateNone {
				u.fixed = true
				if g.Negated {
					return nil, pc.errf(g.Pos, "an update subgoal cannot be negated")
				}
				if ref.kind != refLocal && ref.kind != refEDB {
					return nil, pc.errf(g.Pos, "update subgoal must target a relation")
				}
			}
			if (ref.kind == refProc || ref.kind == refBuiltin) && ref.procFixed {
				u.fixed = true
			}
		case *ast.AggGoal, *ast.GroupByGoal, *ast.UnchangedGoal, *ast.EmptyGoal:
			u.fixed = true
		}
		units = append(units, u)
	}
	return units, nil
}

// exprAllBound reports whether all variables of e are bound.
func (sc *stmtCompiler) exprAllBound(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.TermExpr:
		return sc.bound.hasPat(sc.pat(e.T))
	case *ast.BinExpr:
		return sc.exprAllBound(e.L) && sc.exprAllBound(e.R)
	case *ast.NegExpr:
		return sc.exprAllBound(e.X)
	case *ast.CallExpr:
		for _, a := range e.Args {
			if !sc.exprAllBound(a) {
				return false
			}
		}
		return true
	}
	return false
}

// runnable reports whether the goal can execute under the current bindings,
// and a greedy priority score (higher runs earlier).
func (sc *stmtCompiler) runnable(u *unit) (bool, int) {
	switch g := u.goal.(type) {
	case *ast.AtomGoal:
		predPat, args := sc.atomPats(u)
		boundArgs := 0
		allBound := true
		for i := range args {
			if sc.bound.hasPat(args[i]) {
				boundArgs++
			} else {
				allBound = false
			}
		}
		switch u.ref.kind {
		case refLocal, refEDB:
			if g.Negated || g.Update != ast.UpdateNone {
				return allBound, 90
			}
			return true, 50 + boundArgs
		case refDynamic:
			if !sc.bound.hasPat(predPat) {
				return false, 0
			}
			if g.Negated {
				return allBound, 88
			}
			return true, 40 + boundArgs
		case refFamilyGround, refNail:
			if g.Negated {
				return allBound, 85
			}
			return true, 20 + boundArgs
		case refProc, refBuiltin:
			need := u.ref.bound
			if u.ref.variadic {
				need = len(args)
			}
			for i := 0; i < need; i++ {
				if !sc.bound.hasPat(args[i]) {
					return false, 0
				}
			}
			if g.Negated {
				return allBound, 85
			}
			return true, 20 + boundArgs
		}
		return false, 0
	case *ast.CmpGoal:
		lb, rb := sc.exprAllBound(g.L), sc.exprAllBound(g.R)
		if lb && rb {
			return true, 100
		}
		if g.Op != ast.CmpEq {
			return false, 0
		}
		// One side a (possibly compound) term with unbound variables, the
		// other side fully bound: a binding equation.
		if lt, ok := g.L.(*ast.TermExpr); ok && rb && lt != nil {
			return true, 95
		}
		if rt, ok := g.R.(*ast.TermExpr); ok && lb && rt != nil {
			return true, 95
		}
		return false, 0
	}
	// Fixed goals are validated at emission.
	return true, 0
}

// emitPipe appends a pipe op bound under the registers bound so far.
func (sc *stmtCompiler) emitPipe(op PipeOp) {
	sc.bound.bind(op)
	sc.pipe = append(sc.pipe, op)
	sc.bound.addOp(op)
}

// closeStep ends the segment at barrier b, bound like a pipe op.
func (sc *stmtCompiler) closeStep(b BarrierOp) {
	sc.bound.bind(b)
	sc.steps = append(sc.steps, Step{Pipe: sc.pipe, Barrier: b})
	sc.pipe = nil
	sc.bound.addOp(b)
}

// emitGoals schedules and emits all goals: non-fixed goals are greedily
// reordered within the regions delimited by fixed subgoals (§3.1).
func (sc *stmtCompiler) emitGoals(units []unit) error {
	for i := 0; i < len(units); {
		start := i
		for i < len(units) && !units[i].fixed {
			i++
		}
		if err := sc.emitRegion(units[start:i]); err != nil {
			return err
		}
		if i < len(units) {
			if err := sc.emitUnit(&units[i]); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

func (sc *stmtCompiler) emitRegion(region []unit) error {
	if sc.pc.c.opts.NoReorder {
		for i := range region {
			u := &region[i]
			if ok, _ := sc.runnable(u); !ok {
				return sc.unboundErr(u)
			}
			if err := sc.emitUnit(u); err != nil {
				return err
			}
		}
		return nil
	}
	pending := region // scheduled in place: each unit is emitted once
	for len(pending) > 0 {
		best, bestScore := -1, -1
		for j := range pending {
			ok, score := sc.runnable(&pending[j])
			if !ok {
				continue
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			return sc.unboundErr(&pending[0])
		}
		u := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		if err := sc.emitUnit(&u); err != nil {
			return err
		}
	}
	return nil
}

func (sc *stmtCompiler) unboundErr(u *unit) error {
	pos := u.goal.P()
	if _, ok := u.goal.(*ast.AtomGoal); ok {
		pred, args := sc.atomPats(u)
		return sc.pc.errf(pos, "variable %s is not bound where it is needed",
			sc.firstUnbound(append([]term.Pattern{pred}, args...)...))
	}
	return sc.pc.errf(pos, "subgoal has unbound variables where bindings are required")
}

func (sc *stmtCompiler) emitUnit(u *unit) error {
	switch g := u.goal.(type) {
	case *ast.AtomGoal:
		return sc.emitAtom(g, u)
	case *ast.CmpGoal:
		return sc.emitCmp(g)
	case *ast.AggGoal:
		arg, err := sc.expr(&ast.TermExpr{T: g.Arg})
		if err != nil {
			return err
		}
		if !sc.exprAllBound(&ast.TermExpr{T: g.Arg}) {
			return sc.pc.errf(g.Pos, "aggregate argument has unbound variables")
		}
		sc.closeStep(&Aggregate{Op: g.Op, Arg: arg, Dest: sc.reg(g.Var)})
		return nil
	case *ast.GroupByGoal:
		regs := make([]int, len(g.Vars))
		for i, v := range g.Vars {
			r := sc.reg(v)
			if !sc.bound.has(r) {
				return sc.pc.errf(g.Pos, "group_by variable %s is not bound", v)
			}
			regs[i] = r
		}
		sc.closeStep(&GroupBy{Regs: regs})
		return nil
	case *ast.UnchangedGoal:
		ref, err := sc.staticRel(g.Atom)
		if err != nil {
			return err
		}
		site := sc.pc.sites
		sc.pc.sites++
		sc.closeStep(&UnchangedChk{Site: site, Rel: ref})
		return nil
	case *ast.EmptyGoal:
		ref, err := sc.staticRel(g.Atom)
		if err != nil {
			return err
		}
		sc.closeStep(&EmptyChk{Rel: ref})
		return nil
	}
	return sc.pc.errf(u.goal.P(), "unsupported goal")
}

// staticRel resolves unchanged/empty arguments: a statically named
// relation (local or EDB).
func (sc *stmtCompiler) staticRel(atom *ast.AtomTerm) (RelRef, error) {
	ref, err := sc.pc.resolveAtom(atom)
	if err != nil {
		return RelRef{}, err
	}
	if ref.kind == refLocal || ref.kind == refEDB {
		return ref.relRef(), nil
	}
	return RelRef{}, sc.pc.errf(atom.Pos, "unchanged/empty requires a relation, not a %s",
		kindNoun(ref.kind))
}

func kindNoun(k predRefKind) string {
	switch k {
	case refProc:
		return "procedure"
	case refNail, refFamilyGround:
		return "NAIL! predicate"
	case refBuiltin:
		return "builtin"
	case refDynamic:
		return "dynamic predicate"
	}
	return "relation"
}

func (sc *stmtCompiler) emitAtom(g *ast.AtomGoal, u *unit) error {
	ref := u.ref
	pred, args := sc.atomPats(u)
	if g.Update != ast.UpdateNone {
		sc.closeStep(&Update{Kind: g.Update, Rel: ref.relRef(), Args: args})
		return nil
	}
	switch ref.kind {
	case refLocal, refEDB:
		sc.emitPipe(&Match{Rel: ref.relRef(), Args: args, Negated: g.Negated})
		return nil
	case refDynamic:
		names, fams, err := sc.pc.dynCandidates(len(args))
		if err != nil {
			return err
		}
		narrowed := !sc.pc.c.opts.NoNarrow
		if len(fams) > 0 {
			sc.closeStep(&DynCall{
				Pred: pred, Args: args, Negated: g.Negated,
				Families: fams, Narrowed: narrowed, Candidates: names,
			})
		} else {
			sc.emitPipe(&DynMatch{
				Pred: pred, Arity: len(args), Args: args, Negated: g.Negated,
				Narrowed: narrowed, Candidates: names,
			})
		}
		return nil
	case refFamilyGround:
		procID, err := sc.pc.c.requestFamily(ref.sym)
		if err != nil {
			return err
		}
		free := make([]term.Pattern, 0, ref.sym.NameArity+len(args))
		for _, na := range g.Atom.Pred.(*ast.CompTerm).Args {
			free = append(free, sc.pat(na))
		}
		sc.closeStep(&Call{ProcID: procID, FreeArgs: append(free, args...), Negated: g.Negated})
		return nil
	case refNail:
		mask, _ := sc.bound.bindArgs(args)
		adorn := make([]byte, len(args))
		for i := range args {
			if g.Negated || (mask&(1<<uint(i))) != 0 {
				adorn[i] = 'b'
			} else {
				adorn[i] = 'f'
			}
		}
		procID, eff, err := sc.pc.c.requestNail(ref.sym, string(adorn))
		if err != nil {
			return err
		}
		var ba, fa []term.Pattern
		for i := range args {
			if eff[i] == 'b' {
				ba = append(ba, args[i])
			} else {
				fa = append(fa, args[i])
			}
		}
		sc.closeStep(&Call{ProcID: procID, BoundArgs: ba, FreeArgs: fa, Negated: g.Negated})
		return nil
	case refProc, refBuiltin:
		c := &Call{ProcID: ref.procID, Fixed: ref.procFixed, Negated: g.Negated}
		nb := ref.bound
		if ref.kind == refBuiltin {
			c.Builtin = ref.name
		}
		if ref.variadic {
			nb = len(args)
		}
		c.BoundArgs, c.FreeArgs = args[:nb], args[nb:]
		sc.closeStep(c)
		return nil
	}
	return sc.pc.errf(g.Pos, "unresolvable subgoal")
}

func (sc *stmtCompiler) emitCmp(g *ast.CmpGoal) error {
	lb, rb := sc.exprAllBound(g.L), sc.exprAllBound(g.R)
	if lb && rb {
		l, err := sc.expr(g.L)
		if err != nil {
			return err
		}
		r, err := sc.expr(g.R)
		if err != nil {
			return err
		}
		sc.emitPipe(&Compare{Op: g.Op, L: l, R: r})
		return nil
	}
	if g.Op != ast.CmpEq {
		return sc.pc.errf(g.Pos, "comparison has unbound variables")
	}
	bindSide := func(pat ast.Term, boundSide ast.Expr) error {
		e, err := sc.expr(boundSide)
		if err != nil {
			return err
		}
		p := sc.pat(pat)
		if hasWild(p) {
			return sc.pc.errf(g.Pos, "anonymous variable in a binding equation")
		}
		sc.emitPipe(&MatchBind{Pat: p, E: e})
		return nil
	}
	if lt, ok := g.L.(*ast.TermExpr); ok && rb {
		return bindSide(lt.T, g.R)
	}
	if rt, ok := g.R.(*ast.TermExpr); ok && lb {
		return bindSide(rt.T, g.L)
	}
	return sc.pc.errf(g.Pos, "equation has unbound variables on both sides")
}

func (sc *stmtCompiler) expr(e ast.Expr) (Expr, error) {
	switch e := e.(type) {
	case *ast.TermExpr:
		switch t := e.T.(type) {
		case *ast.Const:
			return ConstE{V: t.Val}, nil
		case *ast.VarTerm:
			if t.IsAnon() {
				return nil, sc.pc.errf(t.Pos, "anonymous variable in expression")
			}
			return RegE{Reg: sc.reg(t.Name)}, nil
		case *ast.CompTerm:
			return PatE{P: sc.pat(t)}, nil
		}
	case *ast.BinExpr:
		l, err := sc.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := sc.expr(e.R)
		if err != nil {
			return nil, err
		}
		return BinE{Op: e.Op, L: l, R: r}, nil
	case *ast.NegExpr:
		x, err := sc.expr(e.X)
		if err != nil {
			return nil, err
		}
		return BinE{Op: ast.OpSub, L: ConstE{V: term.NewInt(0)}, R: x}, nil
	case *ast.CallExpr:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			x, err := sc.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		return CallE{Fn: e.Fn, Args: args}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression")
}

// compileAssign compiles one assignment statement.
func (pc *procCompiler) compileAssign(a *ast.Assign) (*Stmt, error) {
	sc := pc.newStmtCompiler()
	goals := a.Body
	if a.IsReturn {
		// The implicit in subgoal (§4) uses the head's bound arguments.
		if a.HeadBound != len(pc.proc.BoundParams) ||
			len(a.Head.Args)-a.HeadBound != len(pc.proc.FreeParams) {
			return nil, pc.errf(a.Pos,
				"return(%d:%d) does not match procedure arity (%d:%d)",
				a.HeadBound, len(a.Head.Args)-a.HeadBound,
				len(pc.proc.BoundParams), len(pc.proc.FreeParams))
		}
		if !a.InImplied {
			in := &ast.AtomTerm{Pred: constStr("in"), Args: a.Head.Args[:a.HeadBound], Pos: a.Pos}
			goals = append([]ast.Goal{&ast.AtomGoal{Atom: in, Pos: a.Pos}}, goals...)
		}
	}
	units, err := pc.buildUnits(goals)
	if err != nil {
		return nil, err
	}
	if err := sc.emitGoals(units); err != nil {
		return nil, err
	}
	head, keyMask, err := sc.compileHead(a)
	if err != nil {
		return nil, err
	}
	sc.closeStep(nil) // final segment feeds the head
	st := &Stmt{
		Label: ast.FormatAssign(a),
		NRegs: sc.nreg,
		Steps: sc.steps,
		Head:  head,
		Op:    a.Op,
	}
	st.KeyMask = keyMask
	finalize(st, !pc.c.opts.NoDedup)
	return st, nil
}

// compileCond compiles an until-condition conjunction.
func (pc *procCompiler) compileCond(goals []ast.Goal) (*Cond, error) {
	if c := pc.deltasEmpty(goals); c != nil {
		return c, nil
	}
	sc := pc.newStmtCompiler()
	units, err := pc.buildUnits(goals)
	if err != nil {
		return nil, err
	}
	if err := sc.emitGoals(units); err != nil {
		return nil, err
	}
	sc.closeStep(nil)
	st := &Stmt{NRegs: sc.nreg, Steps: sc.steps}
	finalize(st, !pc.c.opts.NoDedup)
	return &Cond{NRegs: st.NRegs, Steps: st.Steps}, nil
}

// deltasEmpty returns the condition "every delta is empty" if goals are
// only empty tests of loop deltas, as a semi-naive loop's until is.
func (pc *procCompiler) deltasEmpty(goals []ast.Goal) *Cond {
	c := &Cond{}
	for _, g := range goals {
		e, ok := g.(*ast.EmptyGoal)
		if !ok {
			return nil
		}
		ref, err := pc.resolveAtom(e.Atom)
		if err != nil || ref.kind != refLocal || ref.rng != RangeDelta {
			return nil
		}
		c.Deltas = append(c.Deltas, ref.relRef())
	}
	return c
}

func (sc *stmtCompiler) compileHead(a *ast.Assign) (HeadSpec, uint32, error) {
	pc := sc.pc
	var head HeadSpec
	args := make([]term.Pattern, len(a.Head.Args))
	for i, t := range a.Head.Args {
		args[i] = sc.pat(t)
		if hasWild(args[i]) {
			return head, 0, pc.errf(a.Pos, "anonymous variable in assignment head")
		}
		if !sc.bound.hasPat(args[i]) {
			return head, 0, pc.errf(a.Pos, "head variable %s is not bound by the body",
				sc.firstUnbound(args[i]))
		}
	}
	head.Args = args
	if a.IsReturn {
		head.IsReturn, head.InImplied, head.Query = true, a.InImplied, a.Query
		head.Ref = RelRef{
			Space: SpaceLocal,
			Name:  term.Ground(term.NewString("return")),
			Arity: len(args),
			Slot:  SlotReturn,
		}
		return head, 0, nil
	}
	// Resolve the target relation.
	switch pred := a.Head.Pred.(type) {
	case *ast.Const:
		if pred.Val.Kind() != term.Str {
			return head, 0, pc.errf(a.Pos, "head predicate must be an atom")
		}
		name := pred.Val.Str()
		if name == "in" {
			return head, 0, pc.errf(a.Pos, "cannot assign to the in relation")
		}
		if l, ok := pc.locals[name]; ok {
			if l.arity != len(args) {
				return head, 0, pc.errf(a.Pos, "local relation %s has arity %d, assigned %d", name, l.arity, len(args))
			}
			head.Ref = RelRef{Space: SpaceLocal, Name: term.Ground(pred.Val), Arity: len(args), Slot: l.slot}
		} else if sym := pc.c.lp.Resolve(pc.module, name); sym != nil {
			if sym.Class != modsys.ClassEDB {
				return head, 0, pc.errf(a.Pos, "cannot assign to %s %s", sym.Class, name)
			}
			if sym.Arity() != len(args) {
				return head, 0, pc.errf(a.Pos, "EDB relation %s has arity %d, assigned %d", name, sym.Arity(), len(args))
			}
			head.Ref = RelRef{Space: SpaceEDB, Name: term.Ground(pred.Val), Arity: len(args)}
		} else {
			return head, 0, pc.errf(a.Pos, "cannot assign to unknown relation %s/%d", name, len(args))
		}
	case *ast.CompTerm:
		// HiLog head: the relation name is computed per row and lives in
		// the EDB space (set relations, §5).
		namePat := sc.pat(pred)
		if hasWild(namePat) {
			return head, 0, pc.errf(a.Pos, "anonymous variable in head relation name")
		}
		if !sc.bound.hasPat(namePat) {
			return head, 0, pc.errf(a.Pos, "head relation name variable %s is not bound",
				sc.firstUnbound(namePat))
		}
		head.Ref = RelRef{Space: SpaceEDB, Name: namePat, Arity: len(args)}
	default:
		return head, 0, pc.errf(a.Pos, "head predicate cannot be a variable")
	}
	// Modify key mask.
	var keyMask uint32
	if a.Op == ast.OpModify {
		if len(args) > 32 {
			return head, 0, pc.errf(a.Pos, "modify assignment limited to 32 columns")
		}
		for _, kv := range a.Key {
			r, ok := sc.regs[kv]
			if !ok {
				return head, 0, pc.errf(a.Pos, "key variable %s does not occur in the statement", kv)
			}
			found := false
			for i, ap := range args {
				if ap.Kind == term.PatVar && ap.Reg == r {
					keyMask |= 1 << uint(i)
					found = true
				}
			}
			if !found {
				return head, 0, pc.errf(a.Pos, "key variable %s is not a head argument", kv)
			}
		}
	}
	return head, keyMask, nil
}

// finalize computes per-step liveness, aggregate presence, and duplicate
// elimination legality: duplicates may be removed at a pipeline break only
// when no aggregator runs at or after the break (§3.3 duplicates are
// meaningful to aggregation; §9 early elimination is otherwise a win).
// Group-by registers stay live everywhere; otherwise a register is live
// at a break if the barrier, a later segment or the head references it.
func finalize(st *Stmt, dedup bool) {
	var live regSet
	var regs []int
	use := func(op any) {
		regs = OpRegs(regs[:0], op)
		for _, r := range regs {
			live.add(r)
		}
	}
	for _, s := range st.Steps {
		if gb, ok := s.Barrier.(*GroupBy); ok {
			use(gb)
		}
	}
	use(&st.Head)
	for k := len(st.Steps) - 1; k >= 0; k-- {
		s := &st.Steps[k]
		if s.Barrier != nil {
			use(s.Barrier)
		}
		if _, ok := s.Barrier.(*Aggregate); ok {
			st.HasAgg = true
		}
		s.LiveRegs = live.list()
		s.Dedup = dedup && !st.HasAgg
		for _, op := range s.Pipe {
			use(op)
		}
	}
}
