// Package parser builds the AST for Glue and NAIL! source. A file contains
// either explicit modules (`module m; ... end`) or, as a convenience for
// scripts and the REPL, bare items that are wrapped in an implicit module
// named "main" with everything exported.
package parser

import (
	"errors"
	"fmt"

	"gluenail/internal/ast"
	"gluenail/internal/lexer"
	"gluenail/internal/term"
)

// Error is a syntax error with position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// parser pulls tokens from the lexer one at a time: the grammar needs a
// single token of lookahead and never rewinds, so no token slice is built.
type parser struct {
	lx  *lexer.Lexer
	tok lexer.Token // the lookahead token; EOF once the input is exhausted
	// lexErr is the first lexical error met; it stands in for EOF in tok
	// and outranks any syntax error (see done).
	lexErr error
	// args is one stack of application arguments shared by every nesting
	// level; each parseApplications call owns the part above its base.
	args []ast.Expr
	// Leaf nodes come from slabs: a parse allocates them a chunk at a time.
	terms  slab[ast.TermExpr]
	consts slab[ast.Const]
	vars   slab[ast.VarTerm]
}

// slab hands out pointers into chunks of T. Chunks start at one element
// and double up to slabChunk, so a short query leaves at most a few slots
// unused and a large source leaves at most one partly filled chunk. A
// chunk stays alive while any node in it does, which the AST's owners
// accept: a tree is kept or dropped as a whole.
type slab[T any] struct{ chunk []T }

const slabChunk = 64

func (s *slab[T]) alloc() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, min(max(1, 2*cap(s.chunk)), slabChunk))
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// release hands x's slot back when x is the newest node, so the next alloc
// reuses it. The caller guarantees nothing references x any more.
func (s *slab[T]) release(x *T) {
	if n := len(s.chunk); n > 0 && x == &s.chunk[n-1] {
		var zero T
		s.chunk[n-1] = zero
		s.chunk = s.chunk[:n-1]
	}
}

func newParser(src string) *parser {
	p := &parser{lx: lexer.New(src)}
	p.advance()
	return p
}

// Parse parses a complete source file.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog, err := p.parseProgram()
	if err = p.done(err); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	if p.peekIdent("module") {
		for !p.atEOF() {
			m, err := p.parseModule()
			if err != nil {
				return nil, err
			}
			prog.Modules = append(prog.Modules, m)
		}
		return prog, nil
	}
	// Implicit script module.
	m := &ast.Module{Name: "main", Pos: p.posHere()}
	for !p.atEOF() {
		if err := p.parseItem(m); err != nil {
			return nil, err
		}
	}
	prog.Modules = append(prog.Modules, m)
	return prog, nil
}

// ParseGoals parses a conjunction of goals, as typed at the query prompt;
// a trailing '.' is optional.
func ParseGoals(src string) ([]ast.Goal, error) {
	p := newParser(src)
	goals, err := p.parseQuery()
	if err = p.done(err); err != nil {
		return nil, err
	}
	return goals, nil
}

func (p *parser) parseQuery() ([]ast.Goal, error) {
	goals, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	if p.peekKind(lexer.Dot) {
		p.next()
	}
	if !p.atEOF() {
		return nil, p.errHere("unexpected %s after query", p.cur())
	}
	return goals, nil
}

// done settles a parse's outcome: a lexical error anywhere in the input
// wins over the syntax error (or success) of the tokens before it, so the
// rest of the input is scanned before a syntax error is reported.
func (p *parser) done(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	if err == nil {
		return nil
	}
	for {
		t, lerr := p.lx.Next()
		if lerr != nil {
			return lerr
		}
		if t.Kind == lexer.EOF {
			return err
		}
	}
}

// advance pulls the next token into p.tok. End of input sits just past
// the last token, or at 1:1 when there was none.
func (p *parser) advance() {
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		t = lexer.Token{Kind: lexer.EOF}
	}
	if t.Kind == lexer.EOF {
		t.Line, t.Col = 1, 1
		if p.tok.Line > 0 {
			t.Line, t.Col = p.tok.Line, p.tok.Col+1
		}
	}
	p.tok = t
}

func (p *parser) cur() lexer.Token { return p.tok }

func (p *parser) next() lexer.Token {
	t := p.tok
	if t.Kind != lexer.EOF {
		p.advance()
	}
	return t
}

func (p *parser) atEOF() bool { return p.cur().Kind == lexer.EOF }

func (p *parser) peekKind(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *parser) peekIdent(name string) bool {
	t := p.cur()
	return t.Kind == lexer.Ident && t.Text == name
}

func (p *parser) posHere() ast.Pos {
	t := p.cur()
	return ast.Pos{Line: t.Line, Col: t.Col}
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if !p.peekKind(k) {
		return lexer.Token{}, p.errHere("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectIdent(name string) error {
	if !p.peekIdent(name) {
		return p.errHere("expected %q, found %s", name, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) parseModule() (*ast.Module, error) {
	m := &ast.Module{Pos: p.posHere()}
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	m.Name = name.Text
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	for {
		if p.peekIdent("end") {
			p.next()
			// Optional trailing semicolon or dot after module end.
			if p.peekKind(lexer.Semi) || p.peekKind(lexer.Dot) {
				p.next()
			}
			return m, nil
		}
		if p.atEOF() {
			return nil, p.errHere("unexpected end of input in module %s", m.Name)
		}
		if err := p.parseItem(m); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseItem(m *ast.Module) error {
	t := p.cur()
	if t.Kind == lexer.Ident {
		switch t.Text {
		case "export":
			return p.parseExport(m)
		case "from":
			return p.parseImport(m)
		case "edb":
			return p.parseEDB(m)
		case "proc", "procedure":
			proc, err := p.parseProc()
			if err != nil {
				return err
			}
			m.Procs = append(m.Procs, proc)
			return nil
		}
	}
	// Otherwise it must be a NAIL! rule.
	r, err := p.parseRule()
	if err != nil {
		return err
	}
	m.Rules = append(m.Rules, r)
	return nil
}

// parseSig parses name(B1,..:F1,..) or name(A1,..) (all free).
func (p *parser) parseSig() (ast.PredSig, error) {
	sig := ast.PredSig{Pos: p.posHere()}
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return sig, err
	}
	sig.Name = name.Text
	if _, err := p.expect(lexer.LParen); err != nil {
		return sig, err
	}
	bound, sawColon, err := p.parseSigVars()
	if err != nil {
		return sig, err
	}
	if sawColon {
		free, sawColon2, err := p.parseSigVars()
		if err != nil {
			return sig, err
		}
		if sawColon2 {
			return sig, p.errHere("unexpected second ':' in signature")
		}
		sig.Bound, sig.Free = bound, free
	} else {
		sig.Free = bound
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return sig, err
	}
	return sig, nil
}

// parseSigVars counts variables up to ':' or ')'.
func (p *parser) parseSigVars() (n int, sawColon bool, err error) {
	for {
		switch {
		case p.peekKind(lexer.RParen):
			return n, false, nil
		case p.peekKind(lexer.Colon):
			p.next()
			return n, true, nil
		case p.peekKind(lexer.Var), p.peekKind(lexer.Ident):
			p.next()
			n++
			if p.peekKind(lexer.Comma) {
				p.next()
			}
		default:
			return 0, false, p.errHere("expected argument name, found %s", p.cur())
		}
	}
}

func (p *parser) parseExport(m *ast.Module) error {
	p.next() // export
	for {
		sig, err := p.parseSig()
		if err != nil {
			return err
		}
		m.Exports = append(m.Exports, sig)
		if p.peekKind(lexer.Comma) {
			p.next()
			continue
		}
		break
	}
	_, err := p.expect(lexer.Semi)
	return err
}

func (p *parser) parseImport(m *ast.Module) error {
	pos := p.posHere()
	p.next() // from
	from, err := p.expect(lexer.Ident)
	if err != nil {
		return err
	}
	if err := p.expectIdent("import"); err != nil {
		return err
	}
	imp := ast.Import{From: from.Text, Pos: pos}
	for {
		sig, err := p.parseSig()
		if err != nil {
			return err
		}
		imp.Sigs = append(imp.Sigs, sig)
		if p.peekKind(lexer.Comma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return err
	}
	m.Imports = append(m.Imports, imp)
	return nil
}

func (p *parser) parseEDB(m *ast.Module) error {
	p.next() // edb
	for {
		sig, err := p.parseSig()
		if err != nil {
			return err
		}
		if sig.Bound != 0 {
			return p.errHere("EDB relation %s cannot have bound arguments", sig.Name)
		}
		m.EDB = append(m.EDB, sig)
		if p.peekKind(lexer.Comma) {
			p.next()
			continue
		}
		break
	}
	_, err := p.expect(lexer.Semi)
	return err
}

func (p *parser) parseProc() (*ast.Proc, error) {
	proc := &ast.Proc{Pos: p.posHere()}
	p.next() // proc / procedure
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	proc.Name = name.Text
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	proc.BoundParams, err = p.parseParamList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	proc.FreeParams, err = p.parseParamList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	if p.peekIdent("rels") {
		p.next()
		for {
			sig, err := p.parseSig()
			if err != nil {
				return nil, err
			}
			if sig.Bound != 0 {
				return nil, p.errHere("local relation %s cannot have bound arguments", sig.Name)
			}
			proc.Locals = append(proc.Locals, sig)
			if p.peekKind(lexer.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
	}
	proc.Body, err = p.parseStmtsUntil("end")
	if err != nil {
		return nil, err
	}
	p.next() // end
	return proc, nil
}

func (p *parser) parseParamList() ([]string, error) {
	var out []string
	for p.peekKind(lexer.Var) {
		out = append(out, p.next().Text)
		if p.peekKind(lexer.Comma) {
			p.next()
		} else {
			break
		}
	}
	return out, nil
}

// parseStmtsUntil parses statements until the terminator identifier.
func (p *parser) parseStmtsUntil(terms ...string) ([]ast.Stmt, error) {
	var out []ast.Stmt
	for {
		for _, t := range terms {
			if p.peekIdent(t) {
				return out, nil
			}
		}
		if p.atEOF() {
			return nil, p.errHere("unexpected end of input, expected %q", terms[0])
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	if p.peekIdent("repeat") {
		return p.parseRepeat()
	}
	return p.parseAssign()
}

func (p *parser) parseRepeat() (ast.Stmt, error) {
	rep := &ast.Repeat{Pos: p.posHere()}
	p.next() // repeat
	body, err := p.parseStmtsUntil("until")
	if err != nil {
		return nil, err
	}
	rep.Body = body
	p.next() // until
	if p.peekKind(lexer.LBrace) {
		p.next()
		for {
			conj, err := p.parseConj()
			if err != nil {
				return nil, err
			}
			rep.Until = append(rep.Until, conj)
			if p.peekKind(lexer.Bar) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(lexer.RBrace); err != nil {
			return nil, err
		}
	} else {
		conj, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		rep.Until = [][]ast.Goal{conj}
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return rep, nil
}

func (p *parser) parseAssign() (ast.Stmt, error) {
	a := &ast.Assign{Pos: p.posHere()}
	// Head: return(B..:F..) or atom.
	if p.peekIdent("return") {
		pos := p.posHere()
		p.next()
		if _, err := p.expect(lexer.LParen); err != nil {
			return nil, err
		}
		a.IsReturn = true
		var args []ast.Term
		sawColon := false
		for !p.peekKind(lexer.RParen) {
			if p.peekKind(lexer.Colon) {
				if sawColon {
					return nil, p.errHere("second ':' in return head")
				}
				sawColon = true
				a.HeadBound = len(args)
				p.next()
				continue
			}
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			args = append(args, t)
			if p.peekKind(lexer.Comma) {
				p.next()
			}
		}
		p.next() // )
		if !sawColon {
			a.HeadBound = 0
		}
		a.Head = &ast.AtomTerm{
			Pred: &ast.Const{Val: term.Intern("return"), Pos: pos},
			Args: args, Pos: pos,
		}
	} else {
		head, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		a.Head = head
	}
	// Operator.
	switch p.cur().Kind {
	case lexer.Assign:
		a.Op = ast.OpAssign
		p.next()
	case lexer.PlusEq:
		a.Op = ast.OpInsert
		p.next()
		if p.peekKind(lexer.LBracket) {
			a.Op = ast.OpModify
			p.next()
			for p.peekKind(lexer.Var) {
				a.Key = append(a.Key, p.next().Text)
				if p.peekKind(lexer.Comma) {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expect(lexer.RBracket); err != nil {
				return nil, err
			}
			if len(a.Key) == 0 {
				return nil, p.errHere("modify assignment needs at least one key variable")
			}
		}
	case lexer.MinusEq:
		a.Op = ast.OpDelete
		p.next()
	default:
		return nil, p.errHere("expected assignment operator, found %s", p.cur())
	}
	body, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	a.Body = body
	if _, err := p.expect(lexer.Dot); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *parser) parseRule() (*ast.Rule, error) {
	r := &ast.Rule{Pos: p.posHere()}
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	r.Head = head
	if p.peekKind(lexer.Implies) {
		p.next()
		body, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		r.Body = body
	}
	if _, err := p.expect(lexer.Dot); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseConj() ([]ast.Goal, error) {
	var goals []ast.Goal
	for {
		g, err := p.parseGoal()
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
		if p.peekKind(lexer.Amp) {
			p.next()
			continue
		}
		return goals, nil
	}
}

func (p *parser) parseGoal() (ast.Goal, error) {
	pos := p.posHere()
	switch p.cur().Kind {
	case lexer.Bang:
		p.next()
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &ast.AtomGoal{Atom: atom, Negated: true, Pos: pos}, nil
	case lexer.PlusPlus:
		p.next()
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &ast.AtomGoal{Atom: atom, Update: ast.UpdateInsert, Pos: pos}, nil
	case lexer.MinusMinus:
		p.next()
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &ast.AtomGoal{Atom: atom, Update: ast.UpdateDelete, Pos: pos}, nil
	}
	// Special builtins with goal arguments.
	if p.cur().Kind == lexer.Ident {
		switch p.cur().Text {
		case "group_by":
			p.next()
			if _, err := p.expect(lexer.LParen); err != nil {
				return nil, err
			}
			var vars []string
			for {
				v, err := p.expect(lexer.Var)
				if err != nil {
					return nil, err
				}
				vars = append(vars, v.Text)
				if p.peekKind(lexer.Comma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(lexer.RParen); err != nil {
				return nil, err
			}
			return &ast.GroupByGoal{Vars: vars, Pos: pos}, nil
		case "unchanged", "empty":
			kind := p.next().Text
			if _, err := p.expect(lexer.LParen); err != nil {
				return nil, err
			}
			atom, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.RParen); err != nil {
				return nil, err
			}
			if kind == "unchanged" {
				return &ast.UnchangedGoal{Atom: atom, Pos: pos}, nil
			}
			return &ast.EmptyGoal{Atom: atom, Pos: pos}, nil
		}
	}
	// General case: parse an expression; a following comparison operator
	// makes this a comparison/aggregation goal, otherwise it must be a
	// predicate atom.
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOpFor(p.cur().Kind); ok {
		p.next()
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// V = agg(T) is an aggregation goal (§3.3).
		if op == ast.CmpEq {
			if g := asAggGoal(left, right, pos); g != nil {
				return g, nil
			}
			if g := asAggGoal(right, left, pos); g != nil {
				return g, nil
			}
		}
		return &ast.CmpGoal{Op: op, L: left, R: right, Pos: pos}, nil
	}
	atom, err := exprToAtom(left)
	p.drop(left)
	if err != nil {
		return nil, &Error{Line: pos.Line, Col: pos.Col, Msg: err.Error()}
	}
	return &ast.AtomGoal{Atom: atom, Pos: pos}, nil
}

// asAggGoal recognizes Var = aggop(Term).
func asAggGoal(varSide, aggSide ast.Expr, pos ast.Pos) ast.Goal {
	vt, ok := varSide.(*ast.TermExpr)
	if !ok {
		return nil
	}
	v, ok := vt.T.(*ast.VarTerm)
	if !ok {
		return nil
	}
	at, ok := aggSide.(*ast.TermExpr)
	if !ok {
		return nil
	}
	c, ok := at.T.(*ast.CompTerm)
	if !ok || len(c.Args) != 1 {
		return nil
	}
	fn, ok := c.Fn.(*ast.Const)
	if !ok || fn.Val.Kind() != term.Str || !ast.AggOps[fn.Val.Str()] {
		return nil
	}
	return &ast.AggGoal{Var: v.Name, Op: fn.Val.Str(), Arg: c.Args[0], Pos: pos}
}

func cmpOpFor(k lexer.Kind) (ast.CmpOp, bool) {
	switch k {
	case lexer.Eq:
		return ast.CmpEq, true
	case lexer.Ne:
		return ast.CmpNe, true
	case lexer.Lt:
		return ast.CmpLt, true
	case lexer.Le:
		return ast.CmpLe, true
	case lexer.Gt:
		return ast.CmpGt, true
	case lexer.Ge:
		return ast.CmpGe, true
	}
	return 0, false
}

// exprToAtom reinterprets a parsed expression as a predicate atom.
func exprToAtom(e ast.Expr) (*ast.AtomTerm, error) {
	te, ok := e.(*ast.TermExpr)
	if !ok {
		return nil, fmt.Errorf("expected a predicate subgoal, found an arithmetic expression")
	}
	switch t := te.T.(type) {
	case *ast.CompTerm:
		return &ast.AtomTerm{Pred: t.Fn, Args: t.Args, Pos: t.Pos}, nil
	case *ast.Const:
		if t.Val.Kind() == term.Str {
			// Bare arity-0 predicate, e.g. `until done`.
			if want, isFn := ast.ExprFns[t.Val.Str()]; isFn {
				return nil, errors.New(arityMsg(t.Val.Str(), want, 0))
			}
			return &ast.AtomTerm{Pred: t, Pos: t.Pos}, nil
		}
	}
	return nil, fmt.Errorf("expected a predicate subgoal")
}

// arityMsg reports an expression builtin applied to the wrong number of
// arguments. A bare builtin name where an atom belongs is refused with it
// too: it formats as the empty application name(), so both spellings must
// mean the same.
func arityMsg(fn string, want, got int) string {
	return fmt.Sprintf("%s expects %d arguments, got %d", fn, want, got)
}

// parseAtom parses pred(args...) where pred may be an atom, a variable, or
// a compound term (HiLog).
func (p *parser) parseAtom() (*ast.AtomTerm, error) {
	pos := p.posHere()
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	switch t := t.(type) {
	case *ast.CompTerm:
		return &ast.AtomTerm{Pred: t.Fn, Args: t.Args, Pos: pos}, nil
	case *ast.Const:
		if t.Val.Kind() == term.Str {
			if want, isFn := ast.ExprFns[t.Val.Str()]; isFn {
				return nil, &Error{Line: pos.Line, Col: pos.Col, Msg: arityMsg(t.Val.Str(), want, 0)}
			}
			return &ast.AtomTerm{Pred: t, Pos: pos}, nil
		}
	case *ast.VarTerm:
		return nil, p.errHere("predicate variable %s must be applied to arguments", t.Name)
	}
	return nil, p.errHere("expected a predicate atom")
}

// parseTerm parses a term: constant, variable, or compound with HiLog
// application chains.
func (p *parser) parseTerm() (ast.Term, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	t, err := p.term(e)
	if err != nil {
		return nil, p.errHere("%v", err)
	}
	return t, nil
}

// term is exprToTerm for an expression the caller then discards. Most
// TermExpr wrappers live only from parsePrimary to here; handing back the
// newest one keeps dead wrappers from filling slab chunks that the kept
// tree would pin.
func (p *parser) term(e ast.Expr) (ast.Term, error) {
	t, err := exprToTerm(e)
	p.drop(e)
	return t, err
}

// drop hands a discarded TermExpr wrapper back to its slab.
func (p *parser) drop(e ast.Expr) {
	if te, ok := e.(*ast.TermExpr); ok {
		p.terms.release(te)
	}
}

// exprToTerm converts an expression to a pure term, rejecting arithmetic.
func exprToTerm(e ast.Expr) (ast.Term, error) {
	switch e := e.(type) {
	case *ast.TermExpr:
		return e.T, nil
	case *ast.NegExpr:
		if te, ok := e.X.(*ast.TermExpr); ok {
			if c, ok := te.T.(*ast.Const); ok {
				switch c.Val.Kind() {
				case term.Int:
					return &ast.Const{Val: term.NewInt(-c.Val.Int()), Pos: c.Pos}, nil
				case term.Float:
					return &ast.Const{Val: term.NewFloat(-c.Val.Float()), Pos: c.Pos}, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("arithmetic is not allowed inside term arguments; bind it with '=' first")
}

// Expression grammar with precedence: add < mul < unary < postfix.
func (p *parser) parseExpr() (ast.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Kind {
		case lexer.Plus:
			op = ast.OpAdd
		case lexer.Minus:
			op = ast.OpSub
		default:
			return left, nil
		}
		pos := p.posHere()
		p.next()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &ast.BinExpr{Op: op, L: left, R: right, Pos: pos}
	}
}

func (p *parser) parseMul() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch {
		case p.peekKind(lexer.Star):
			op = ast.OpMul
		case p.peekKind(lexer.Slash):
			op = ast.OpDiv
		case p.peekIdent("mod"):
			op = ast.OpMod
		default:
			return left, nil
		}
		pos := p.posHere()
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.BinExpr{Op: op, L: left, R: right, Pos: pos}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.peekKind(lexer.Minus) {
		pos := p.posHere()
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals immediately.
		if te, ok := x.(*ast.TermExpr); ok {
			if c, ok := te.T.(*ast.Const); ok {
				switch c.Val.Kind() {
				case term.Int:
					return p.constExpr(term.NewInt(-c.Val.Int()), c.Pos), nil
				case term.Float:
					return p.constExpr(term.NewFloat(-c.Val.Float()), c.Pos), nil
				}
			}
		}
		return &ast.NegExpr{X: x, Pos: pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	pos := p.posHere()
	t := p.cur()
	switch t.Kind {
	case lexer.Int:
		p.next()
		return p.constExpr(term.NewInt(t.I), pos), nil
	case lexer.Float:
		p.next()
		return p.constExpr(term.NewFloat(t.F), pos), nil
	case lexer.Str, lexer.Ident:
		p.next()
		return p.parseApplications(p.constExpr(term.Intern(t.Text), pos))
	case lexer.Var:
		p.next()
		v := p.vars.alloc()
		*v = ast.VarTerm{Name: t.Text, Pos: pos}
		return p.parseApplications(p.termExpr(v))
	case lexer.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errHere("expected a term, found %s", p.cur())
}

func (p *parser) termExpr(t ast.Term) *ast.TermExpr {
	e := p.terms.alloc()
	e.T = t
	return e
}

func (p *parser) constExpr(v term.Value, pos ast.Pos) *ast.TermExpr {
	c := p.consts.alloc()
	*c = ast.Const{Val: v, Pos: pos}
	return p.termExpr(c)
}

// parseApplications parses zero or more HiLog application suffixes
// "(args...)" and builtin-function calls.
func (p *parser) parseApplications(e ast.Expr) (ast.Expr, error) {
	for p.peekKind(lexer.LParen) {
		pos := p.posHere()
		p.next()
		base := len(p.args)
		for !p.peekKind(lexer.RParen) {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.args = append(p.args, a)
			if p.peekKind(lexer.Comma) {
				p.next()
			} else {
				break
			}
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		args := p.args[base:]
		p.args = p.args[:base]
		// A builtin expression function (strcat etc.) stays a CallExpr;
		// anything else must have pure-term arguments and becomes a
		// compound term.
		if te, ok := e.(*ast.TermExpr); ok {
			if c, ok := te.T.(*ast.Const); ok && c.Val.Kind() == term.Str {
				if want, isFn := ast.ExprFns[c.Val.Str()]; isFn {
					if len(args) != want {
						return nil, &Error{Line: pos.Line, Col: pos.Col, Msg: arityMsg(c.Val.Str(), want, len(args))}
					}
					e = &ast.CallExpr{Fn: c.Val.Str(), Args: append([]ast.Expr(nil), args...), Pos: pos}
					continue
				}
			}
		}
		// Newest first, so each wrapper dropped is the slab's newest node.
		// Every failure here carries the same message and position, so
		// the order does not change which error is reported.
		termArgs := make([]ast.Term, len(args))
		for i := len(args) - 1; i >= 0; i-- {
			ta, err := p.term(args[i])
			if err != nil {
				return nil, &Error{Line: pos.Line, Col: pos.Col, Msg: err.Error()}
			}
			termArgs[i] = ta
		}
		fnTerm, err := p.term(e)
		if err != nil {
			return nil, &Error{Line: pos.Line, Col: pos.Col, Msg: err.Error()}
		}
		e = p.termExpr(&ast.CompTerm{Fn: fnTerm, Args: termArgs, Pos: pos})
	}
	return e, nil
}
