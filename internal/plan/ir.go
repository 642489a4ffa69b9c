// Package plan compiles resolved Glue statements into an executable plan:
// the supplementary-relation pipeline of §3.2 broken into segments at fixed
// subgoals (§9). The compiler performs the paper's "do as much as possible
// at compile time" work: predicate-class resolution, binding analysis,
// reordering of non-fixed subgoals, HiLog dispatch narrowing, and placement
// of duplicate elimination at pipeline breaks.
package plan

import (
	"sync"
	"sync/atomic"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

// Space says which relation namespace a reference lives in.
type Space uint8

const (
	// SpaceEDB is the persistent store (and dynamically created HiLog set
	// relations).
	SpaceEDB Space = iota
	// SpaceLocal is the current procedure frame: declared locals plus the
	// special in/return relations.
	SpaceLocal
)

// RelRef names a relation at plan level. Name is a pattern because HiLog
// heads and subgoals may compute the relation name per row
// (tas(ID)(TA) := ...). A SpaceLocal relation is found by Slot, its
// number in the procedure's frame; its Name is the source name, for
// printing. Range reads part of a frame relation a loop advances.
type RelRef struct {
	Space Space
	Name  term.Pattern
	Arity int
	Slot  int
	Range Range
}

// Range selects the slots of a frame relation a read sees: all of them,
// its delta [lo, hi) as the last Advance set it, or every slot up to the
// delta's end, [0, hi).
type Range uint8

const (
	RangeAll Range = iota
	RangeDelta
	RangeSeen
)

// The frame slots of a procedure's local relations: in, return, then the
// declared locals, Locals[i] at SlotLocals+i.
const (
	SlotIn = iota
	SlotReturn
	SlotLocals
)

// Program is a compiled program: procedures by ID. Procedure IDs are
// "module.name" for user procs and "module.pred@adornment" for generated
// NAIL! procs. It is the one copy every machine executes: the compiler
// keeps adding procedures (queries, new adornments) while machines run, so
// a machine looks procedures up through Proc, and the compiler writes Procs
// only under mu. Reading Procs directly is safe only on the compiling
// goroutine, or when nothing compiles concurrently.
type Program struct {
	Procs map[string]*Proc
	mu    sync.RWMutex
	// epoch is recorded by every cached plan (see cache.go).
	epoch atomic.Uint64
}

// Proc returns the procedure with the given ID.
func (p *Program) Proc(id string) (*Proc, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	proc, ok := p.Procs[id]
	return proc, ok
}

// Proc is one compiled procedure.
type Proc struct {
	ID     string
	Module string
	Name   string
	Bound  int
	Free   int
	Fixed  bool
	Locals []LocalDecl
	Body   []Instr
}

// LocalDecl declares a frame-local relation.
type LocalDecl struct {
	Name  string
	Arity int
}

// Slot returns the relation in frame slot i: in, return or a declared
// local.
func (p *Proc) Slot(i int) LocalDecl {
	switch i {
	case SlotIn:
		return LocalDecl{Name: "in", Arity: p.Bound}
	case SlotReturn:
		return LocalDecl{Name: "return", Arity: p.Bound + p.Free}
	}
	return p.Locals[i-SlotLocals]
}

// Instr is a procedure-body instruction.
type Instr interface{ instr() }

// ExecStmt runs one compiled assignment statement.
type ExecStmt struct{ S *Stmt }

func (*ExecStmt) instr() {}

// Loop is repeat ... until: run Body, evaluate the Until disjunction, exit
// when any alternative holds.
type Loop struct {
	Body  []Instr
	Until []*Cond
}

func (*Loop) instr() {}

// Advance is a semi-naive loop's delta step (ast.Advance): Rel's delta
// becomes the rows it gained since the last, [lo, hi) = [hi, Len).
type Advance struct{ Rel RelRef }

func (*Advance) instr() {}

// Cond is a compiled until-condition conjunction; it is true when at least
// one supplementary row survives all steps. A conjunction of empty tests
// of loop deltas is Deltas instead, true when each delta's range
// [lo, hi) is empty; it has no steps.
type Cond struct {
	NRegs  int
	Steps  []Step
	Deltas []RelRef
	slot   PlanSlot
}

// Stmt is a compiled assignment statement.
type Stmt struct {
	// Label is the statement's source rendering, for tracing.
	Label string
	NRegs int
	Steps []Step
	Head  HeadSpec
	Op    ast.AssignOp
	// KeyMask selects the head columns forming the +=[key] update key.
	KeyMask uint32
	// HasAgg reports whether any step aggregates; used by executors to
	// decide whether duplicate elimination is legal anywhere.
	HasAgg bool
	// Move, set by the def-use pass (moves.go), runs the statement as a
	// handover of its source's storage to the target.
	Move *Move
	slot PlanSlot
}

// Move is a ":=" onto a frame relation that only copies one source in the
// head's order: a frame relation dead afterwards (Src), or the results of
// a call with no bound arguments (Call; Src is -1), or, onto a query's
// return, only constant ones. Input is the call's one input tuple, those
// constants, which lead every row the move hands over. In reports that
// the body also matches the 0-arity in() or implies its in subgoal, so
// rows move only when in is not empty.
type Move struct {
	Src   int
	Call  *Call
	Input []term.Tuple
	In    bool
}

// HeadSpec describes the assignment target and the tuples built per row.
// InImplied and Query mark returns as ast.Assign does.
type HeadSpec struct {
	Ref                        RelRef
	Args                       []term.Pattern
	IsReturn, InImplied, Query bool
}

// Step is one pipeline segment: streaming ops, then an optional
// materialization barrier. After the Pipe ops run, rows are materialized;
// if Dedup is set (legal only when no aggregator follows, §3.3) duplicates
// over LiveRegs are removed; then the Barrier op consumes the whole set.
// The final step of a statement has a nil Barrier — its rows feed the head.
type Step struct {
	Pipe     []PipeOp
	Barrier  BarrierOp
	Dedup    bool
	LiveRegs []int
}

// PipeOp is a streaming operator: given one row, it yields zero or more
// extended rows without needing the whole supplementary relation.
type PipeOp interface{ pipeOp() }

// Match scans or index-probes a relation, matching argument patterns.
type Match struct {
	Rel     RelRef
	Args    []term.Pattern
	Negated bool
	// BoundMask marks argument positions known to be fully bound when the
	// op runs; the executor builds a lookup key from them (index access).
	BoundMask uint32
	// Bind lists the registers this op binds (statically known from the
	// binding analysis); the executor restores them by zeroing.
	Bind []int
}

func (*Match) pipeOp() {}

// DynMatch is a HiLog dispatch over stored relations: the predicate name is
// computed per row and resolved against the frame locals and the EDB store.
type DynMatch struct {
	Pred    term.Pattern
	Arity   int
	Args    []term.Pattern
	Negated bool
	// Narrowed enables the compile-time candidate narrowing of §5/§9:
	// names outside the visible candidate set are rejected without
	// searching every class. Candidates lists the visible simple relation
	// names; compound names fall through to store lookup.
	Narrowed   bool
	Candidates map[string]bool
	BoundMask  uint32
	Bind       []int
}

func (*DynMatch) pipeOp() {}

// Compare filters rows by a comparison between two bound expressions.
type Compare struct {
	Op   ast.CmpOp
	L, R Expr
}

func (*Compare) pipeOp() {}

// MatchBind evaluates E and matches the result against Pat, binding any
// unbound registers in Pat (the X = expr and f(X,Y) = Z forms).
type MatchBind struct {
	Pat  term.Pattern
	E    Expr
	Bind []int
}

func (*MatchBind) pipeOp() {}

// BarrierOp consumes the materialized supplementary relation and produces
// the next one. Every barrier is a pipeline break (§9).
type BarrierOp interface{ barrierOp() }

// Call invokes a Glue procedure, generated NAIL! procedure, builtin, or
// registered foreign procedure: once on all the distinct bindings of its
// input arguments (§4), then joins the results back.
type Call struct {
	ProcID    string // compiled procedure ID, or ""
	Builtin   string // builtin/FFI name when ProcID == ""
	BoundArgs []term.Pattern
	FreeArgs  []term.Pattern
	Fixed     bool
	// Negated keeps only the rows whose input tuple yields no results; all
	// arguments must be bound.
	Negated bool
	// Bind lists the registers the free arguments bind.
	Bind []int
}

func (*Call) barrierOp() {}

// DynCall is HiLog dispatch whose candidates include NAIL! families: per
// distinct predicate-name value it either calls the family procedure or
// falls back to stored-relation lookup.
type DynCall struct {
	Pred       term.Pattern
	Args       []term.Pattern
	Negated    bool
	Families   []FamilyCand
	Narrowed   bool
	Candidates map[string]bool
	Bind       []int
}

func (*DynCall) barrierOp() {}

// FamilyCand is a candidate NAIL! family for dynamic dispatch.
type FamilyCand struct {
	Base      string // functor of the compound predicate name
	NameArity int
	ProcID    string // all-free generated procedure
}

// Aggregate computes Op over Arg for every row of the supplementary
// relation (per group when group_by is in effect) and binds or filters
// against register Dest (§3.3).
type Aggregate struct {
	Op        string
	Arg       Expr
	Dest      int
	DestBound bool
}

func (*Aggregate) barrierOp() {}

// GroupBy extends the grouping key for subsequent aggregators (§3.3.1);
// cascading group_by goals accumulate registers.
type GroupBy struct {
	Regs []int
}

func (*GroupBy) barrierOp() {}

// Update applies an in-body EDB update subgoal (++p / --p) set-at-a-time;
// rows pass through unchanged.
type Update struct {
	Kind ast.UpdateKind
	Rel  RelRef
	Args []term.Pattern
}

func (*Update) barrierOp() {}

// UnchangedChk implements unchanged(P): true when P's version equals the
// version recorded the last time this site executed; always false on first
// execution (§4). Site indexes frame-local memory.
type UnchangedChk struct {
	Site int
	Rel  RelRef
}

func (*UnchangedChk) barrierOp() {}

// EmptyChk implements empty(p(...)): rows pass iff the relation holds no
// tuples.
type EmptyChk struct {
	Rel RelRef
}

func (*EmptyChk) barrierOp() {}

// Expr is a compiled expression.
type Expr interface{ exprNode() }

// ConstE is a constant.
type ConstE struct{ V term.Value }

func (ConstE) exprNode() {}

// RegE reads a register.
type RegE struct{ Reg int }

func (RegE) exprNode() {}

// PatE builds a ground value from a pattern whose registers are all bound.
type PatE struct{ P term.Pattern }

func (PatE) exprNode() {}

// BinE is binary arithmetic.
type BinE struct {
	Op   ast.BinOp
	L, R Expr
}

func (BinE) exprNode() {}

// CallE is a builtin expression function (strcat, strlen, substr, abs).
type CallE struct {
	Fn   string
	Args []Expr
}

func (CallE) exprNode() {}

// BuiltinSig describes a builtin or foreign procedure to the compiler.
type BuiltinSig struct {
	Bound int
	Free  int
	// Variadic accepts any number of bound arguments (write/writeln).
	Variadic bool
	Fixed    bool
}

// Options configures compilation; the zero value enables every
// optimization the paper describes.
type Options struct {
	// Builtin reports the signature of a builtin/foreign procedure.
	Builtin func(name string) (BuiltinSig, bool)
	// NoReorder disables non-fixed subgoal reordering (ablation).
	NoReorder bool
	// NoDedup disables duplicate elimination at pipeline breaks (E3).
	NoDedup bool
	// NoMagic disables magic-set rewriting of bound NAIL! calls (E9).
	NoMagic bool
	// Naive replaces semi-naive (uniondiff) recursion with naive
	// re-derivation in generated NAIL! procedures (E5).
	Naive bool
	// NoNarrow disables compile-time HiLog dispatch narrowing (E6).
	NoNarrow bool
}
