// Package ast defines the abstract syntax of Glue and NAIL! programs as
// described in the paper: modules (§6) containing EDB declarations, Glue
// procedures (§4) built from assignment statements (§3) and repeat loops,
// and NAIL! rules. Terms follow the HiLog scheme (§5): a predicate position
// may hold a variable or a compound term.
package ast

import (
	"strings"

	"gluenail/internal/term"
)

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

// Program is a parsed source file: one or more modules.
type Program struct {
	Modules []*Module
}

// Module is a compile-time code grouping (§6): a name, import/export lists,
// EDB declarations, and IDB predicate code — both Glue procedures and NAIL!
// rules may appear in the same module.
type Module struct {
	Name    string
	Exports []PredSig
	Imports []Import
	EDB     []PredSig
	Procs   []*Proc
	Rules   []*Rule
	Pos     Pos
}

// Import names predicates pulled in from another module.
type Import struct {
	From string
	Sigs []PredSig
	Pos  Pos
}

// PredSig declares a predicate's name and its bound:free arity split. EDB
// relations are declared all-free; procedure signatures split arguments at
// the colon.
type PredSig struct {
	Name  string
	Bound int
	Free  int
	Pos   Pos
}

// Arity returns the total number of arguments.
func (s PredSig) Arity() int { return s.Bound + s.Free }

// String renders "name(b1,..:f1,..)" as an arity shape "name/b:f".
func (s PredSig) String() string {
	var sb strings.Builder
	sb.WriteString(s.Name)
	sb.WriteByte('/')
	sb.WriteString(itoa(s.Bound))
	sb.WriteByte(':')
	sb.WriteString(itoa(s.Free))
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Proc is a Glue procedure (§4). Bound parameters arrive through the
// implicit `in` relation; assigning the `return` relation exits the
// procedure.
type Proc struct {
	Name        string
	BoundParams []string
	FreeParams  []string
	Locals      []PredSig
	Body        []Stmt
	Pos         Pos
}

// Sig returns the procedure's signature.
func (p *Proc) Sig() PredSig {
	return PredSig{Name: p.Name, Bound: len(p.BoundParams), Free: len(p.FreeParams), Pos: p.Pos}
}

// Rule is a NAIL! rule: Head :- Body. A fact rule has an empty body. Rule
// bodies are restricted to (possibly negated) atoms and comparisons.
type Rule struct {
	Head *AtomTerm
	Body []Goal
	Pos  Pos
}

// Stmt is a Glue statement: an assignment or a repeat loop.
type Stmt interface {
	stmtNode()
	P() Pos
}

// AssignOp selects among the four assignment operators (§3.1).
type AssignOp uint8

const (
	// OpAssign is ":=", the clearing assignment.
	OpAssign AssignOp = iota
	// OpInsert is "+=".
	OpInsert
	// OpDelete is "-=".
	OpDelete
	// OpModify is "+=[Z...]", update by key.
	OpModify
)

// String renders the operator's source spelling.
func (op AssignOp) String() string {
	switch op {
	case OpAssign:
		return ":="
	case OpInsert:
		return "+="
	case OpDelete:
		return "-="
	case OpModify:
		return "+=[...]"
	}
	return "?="
}

// Assign is a Glue assignment statement: head op body. Assigning to the
// special relation `return` carries the bound:free split of the head and
// implies an `in` subgoal (§4).
type Assign struct {
	Op       AssignOp
	Head     *AtomTerm
	IsReturn bool
	// InImplied marks a return whose body keeps only rows whose bound
	// columns are in `in` already (NAIL!'s magic-set proof), so it takes
	// no implicit in subgoal. Query marks a query wrapper's return, whose
	// rows only the query's caller reads.
	InImplied, Query bool
	HeadBound        int      // bound-arg count when IsReturn
	Key              []string // key variables for OpModify
	Body             []Goal
	Pos              Pos
}

func (*Assign) stmtNode() {}

// P implements Stmt.
func (a *Assign) P() Pos { return a.Pos }

// Repeat is the repeat ... until loop (§4). Until is a disjunction of
// conjunctions: `until {confirmed(K) | empty(possible(K))}`.
type Repeat struct {
	Body  []Stmt
	Until [][]Goal
	Pos   Pos
}

func (*Repeat) stmtNode() {}

// P implements Stmt.
func (r *Repeat) P() Pos { return r.Pos }

// Advance is §10's uniondiff step, emitted by NAIL!: Delta names the rows
// Rel gained since Delta's last advance (all of Rel at the first), and in
// a loop that advances it a read of Rel sees the rows up to Delta's end.
type Advance struct{ Delta, Rel string }

func (*Advance) stmtNode() {}

// P implements Stmt; an emitted statement has no source position.
func (*Advance) P() Pos { return Pos{} }

// Goal is one subgoal in a statement or rule body.
type Goal interface {
	goalNode()
	P() Pos
}

// UpdateKind marks in-body EDB-updating subgoals: ++p(...) inserts and
// --p(...) deletes (the body update feature §9 mentions forcing pipeline
// breaks; Figure 1 uses --possible(It,D)).
type UpdateKind uint8

const (
	// UpdateNone marks an ordinary reading subgoal.
	UpdateNone UpdateKind = iota
	// UpdateInsert marks ++p(...).
	UpdateInsert
	// UpdateDelete marks --p(...).
	UpdateDelete
)

// AtomGoal is a predicate subgoal: an EDB relation, local relation, NAIL!
// predicate, Glue procedure, builtin, or HiLog predicate variable — the
// syntax is identical in all cases (§2).
type AtomGoal struct {
	Atom    *AtomTerm
	Negated bool
	Update  UpdateKind
	Pos     Pos
}

func (*AtomGoal) goalNode() {}

// P implements Goal.
func (g *AtomGoal) P() Pos { return g.Pos }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators. CmpEq doubles as the binding/equation goal: when one
// side is an unbound variable it binds; otherwise it tests.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator's source spelling.
func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// CmpGoal is a comparison or equation subgoal, e.g. X != Y or D = X*X+Y*Y.
type CmpGoal struct {
	Op   CmpOp
	L, R Expr
	Pos  Pos
}

func (*CmpGoal) goalNode() {}

// P implements Goal.
func (g *CmpGoal) P() Pos { return g.Pos }

// AggGoal is an aggregation subgoal V = op(T) (§3.3). The aggregator runs
// over the tuples of the preceding supplementary relation (respecting any
// group_by partitioning); V may be already bound, in which case the goal
// selects tuples whose aggregate equals V.
type AggGoal struct {
	Var string
	Op  string // min max mean sum product arbitrary std_dev count
	Arg Term
	Pos Pos
}

func (*AggGoal) goalNode() {}

// P implements Goal.
func (g *AggGoal) P() Pos { return g.Pos }

// GroupByGoal partitions the supplementary relation (§3.3.1); group_by
// subgoals cascade.
type GroupByGoal struct {
	Vars []string
	Pos  Pos
}

func (*GroupByGoal) goalNode() {}

// P implements Goal.
func (g *GroupByGoal) P() Pos { return g.Pos }

// UnchangedGoal is the builtin unchanged(P) (§4): true when predicate P has
// not changed since this syntactic occurrence last executed; always false
// the first time.
type UnchangedGoal struct {
	Atom *AtomTerm
	Pos  Pos
}

func (*UnchangedGoal) goalNode() {}

// P implements Goal.
func (g *UnchangedGoal) P() Pos { return g.Pos }

// EmptyGoal is the builtin empty(p(...)): true when the relation holds no
// tuples (Figure 1).
type EmptyGoal struct {
	Atom *AtomTerm
	Pos  Pos
}

func (*EmptyGoal) goalNode() {}

// P implements Goal.
func (g *EmptyGoal) P() Pos { return g.Pos }

// AtomTerm is a predicate application: Pred(Args...). Pred is a Term, not a
// string, because HiLog allows variables (S(X)) and compound names
// (students(ID)(N)) in predicate position.
type AtomTerm struct {
	Pred Term
	Args []Term
	Pos  Pos
}

// PredName returns the predicate's simple name when Pred is a plain atom,
// or "" otherwise.
func (a *AtomTerm) PredName() string {
	if c, ok := a.Pred.(*Const); ok && c.Val.Kind() == term.Str {
		return c.Val.Str()
	}
	return ""
}

// Arity returns the number of arguments.
func (a *AtomTerm) Arity() int { return len(a.Args) }

// Term is a source-level term: a constant, a variable, or a compound term
// whose functor is itself a term.
type Term interface {
	termNode()
	P() Pos
}

// Const is a ground constant.
type Const struct {
	Val term.Value
	Pos Pos
}

func (*Const) termNode() {}

// P implements Term.
func (t *Const) P() Pos { return t.Pos }

// VarTerm is a variable; Name "_" is the anonymous variable (each
// occurrence distinct).
type VarTerm struct {
	Name string
	Pos  Pos
}

func (*VarTerm) termNode() {}

// P implements Term.
func (t *VarTerm) P() Pos { return t.Pos }

// IsAnon reports whether the variable is the anonymous "_".
func (t *VarTerm) IsAnon() bool { return t.Name == "_" }

// CompTerm is a compound term f(args...) with a term-valued functor.
type CompTerm struct {
	Fn   Term
	Args []Term
	Pos  Pos
}

func (*CompTerm) termNode() {}

// P implements Term.
func (t *CompTerm) P() Pos { return t.Pos }

// Expr is an expression usable in comparison/equation goals: arithmetic,
// string builtins, or term construction.
type Expr interface {
	exprNode()
	P() Pos
}

// TermExpr wraps a Term used as an expression operand (variable, constant,
// or compound construction).
type TermExpr struct {
	T Term
}

func (*TermExpr) exprNode() {}

// P implements Expr.
func (e *TermExpr) P() Pos { return e.T.P() }

// BinOp is an arithmetic operator.
type BinOp uint8

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String renders the operator's source spelling.
func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "mod"}[op]
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

func (*BinExpr) exprNode() {}

// P implements Expr.
func (e *BinExpr) P() Pos { return e.Pos }

// NegExpr is unary minus.
type NegExpr struct {
	X   Expr
	Pos Pos
}

func (*NegExpr) exprNode() {}

// P implements Expr.
func (e *NegExpr) P() Pos { return e.Pos }

// CallExpr is a builtin function application: the string operators the
// paper gives Glue (concatenation, length, substring) plus abs.
type CallExpr struct {
	Fn   string // strcat, strlen, substr, abs
	Args []Expr
	Pos  Pos
}

func (*CallExpr) exprNode() {}

// P implements Expr.
func (e *CallExpr) P() Pos { return e.Pos }

// AggOps lists the aggregate operators of §3.3.
var AggOps = map[string]bool{
	"min": true, "max": true, "mean": true, "sum": true,
	"product": true, "arbitrary": true, "std_dev": true, "count": true,
}

// ExprFns lists the builtin expression functions and their arities.
var ExprFns = map[string]int{
	"strcat": 2, "strlen": 1, "substr": 3, "abs": 1,
}
