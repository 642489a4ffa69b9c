package plan

import (
	"slices"

	"gluenail/internal/term"
)

// The binding rule (DESIGN §5.27), written once for every pass: which
// registers an op references, which it binds under a bound set, and
// which relation it reads. The statement compiler, finalize, the physical
// planner, the def-use pass, the plan cache and the executor's kernels
// all ask here.

// regSet is a bound-register set, one bit per register.
type regSet []uint64

func (s regSet) has(r int) bool {
	w := r >> 6
	return w < len(s) && s[w]&(1<<uint(r&63)) != 0
}

func (s *regSet) add(r int) {
	for r>>6 >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[r>>6] |= 1 << uint(r&63)
}

// hasPat reports whether every register of p is in the set.
func (s regSet) hasPat(p term.Pattern) bool {
	switch p.Kind {
	case term.PatVar:
		return s.has(p.Reg)
	case term.PatComp:
		if !s.hasPat(*p.Fn) {
			return false
		}
		for i := range p.Args {
			if !s.hasPat(p.Args[i]) {
				return false
			}
		}
	}
	return true
}

// hasExpr reports whether every register read by e is in the set.
func (s regSet) hasExpr(e Expr) bool {
	switch e := e.(type) {
	case RegE:
		return s.has(e.Reg)
	case PatE:
		return s.hasPat(e.P)
	case BinE:
		return s.hasExpr(e.L) && s.hasExpr(e.R)
	case CallE:
		for _, a := range e.Args {
			if !s.hasExpr(a) {
				return false
			}
		}
	}
	return true // ConstE
}

// list returns the set's registers in ascending order.
func (s regSet) list() []int {
	out := []int{}
	for r := range len(s) * 64 {
		if s.has(r) {
			out = append(out, r)
		}
	}
	return out
}

// free appends to dst the registers of p outside the set that dst does not
// hold yet, in traversal order.
func (s regSet) free(dst []int, p term.Pattern) []int {
	switch p.Kind {
	case term.PatVar:
		if !s.has(p.Reg) && !slices.Contains(dst, p.Reg) {
			dst = append(dst, p.Reg)
		}
	case term.PatComp:
		dst = s.free(dst, *p.Fn)
		for i := range p.Args {
			dst = s.free(dst, p.Args[i])
		}
	}
	return dst
}

// bindArgs is the mask-and-bind rule of an op matching args: mask bit i is
// set iff argument i is no wildcard and all its registers are bound; the
// op binds the unbound registers, each once, in traversal order.
func (s regSet) bindArgs(args []term.Pattern) (mask uint32, bind []int) {
	for i := range args {
		if i < 32 && args[i].Kind != term.PatWild && s.hasPat(args[i]) {
			mask |= 1 << uint(i)
		}
		bind = s.free(bind, args[i])
	}
	return mask, bind
}

// bind sets op's bound mask and bind list (an aggregate's DestBound) for
// running under the set: the compiler's ops and the planner's clones get
// them here alike.
func (s regSet) bind(op any) {
	switch op := op.(type) {
	case *Match:
		op.BoundMask, op.Bind = s.bindArgs(op.Args)
	case *DynMatch:
		op.BoundMask, op.Bind = s.bindArgs(op.Args)
	case *MatchBind:
		op.Bind = s.free(nil, op.Pat)
	case *Call:
		_, op.Bind = s.bindArgs(op.FreeArgs)
	case *DynCall:
		_, op.Bind = s.bindArgs(op.Args)
	case *Aggregate:
		op.DestBound = s.has(op.Dest)
	}
}

// addOp adds the registers a bound op binds once it has run: its bind
// list, or an aggregate's destination. Negated ops bind nothing; they run
// only with every argument bound.
func (s *regSet) addOp(op any) {
	var bind []int
	switch op := op.(type) {
	case *Match:
		bind = op.Bind
	case *DynMatch:
		bind = op.Bind
	case *MatchBind:
		bind = op.Bind
	case *Call:
		bind = op.Bind
	case *DynCall:
		bind = op.Bind
	case *Aggregate:
		s.add(op.Dest)
	}
	for _, r := range bind {
		s.add(r)
	}
}

// OpRegs appends to dst, each once, every register op reads or binds: op
// is a PipeOp, a BarrierOp or a statement's *HeadSpec.
func OpRegs(dst []int, op any) []int {
	var pats []term.Pattern
	switch op := op.(type) {
	case *Match:
		dst, pats = op.Rel.Name.Regs(dst), op.Args
	case *DynMatch:
		dst, pats = op.Pred.Regs(dst), op.Args
	case *Compare:
		return exprRegs(exprRegs(dst, op.L), op.R)
	case *MatchBind:
		return exprRegs(op.Pat.Regs(dst), op.E)
	case *Call:
		dst, pats = patRegs(dst, op.BoundArgs), op.FreeArgs
	case *DynCall:
		dst, pats = op.Pred.Regs(dst), op.Args
	case *Aggregate:
		return term.Var(op.Dest).Regs(exprRegs(dst, op.Arg))
	case *GroupBy:
		for _, r := range op.Regs {
			dst = term.Var(r).Regs(dst)
		}
	case *Update:
		dst, pats = op.Rel.Name.Regs(dst), op.Args
	case *UnchangedChk:
		dst = op.Rel.Name.Regs(dst)
	case *EmptyChk:
		dst = op.Rel.Name.Regs(dst)
	case *HeadSpec:
		dst, pats = op.Ref.Name.Regs(dst), op.Args
	}
	return patRegs(dst, pats)
}

func patRegs(dst []int, ps []term.Pattern) []int {
	for i := range ps {
		dst = ps[i].Regs(dst)
	}
	return dst
}

func exprRegs(dst []int, e Expr) []int {
	switch e := e.(type) {
	case RegE:
		return term.Var(e.Reg).Regs(dst)
	case PatE:
		return e.P.Regs(dst)
	case BinE:
		return exprRegs(exprRegs(dst, e.L), e.R)
	case CallE:
		for _, a := range e.Args {
			dst = exprRegs(dst, a)
		}
	}
	return dst
}

// opRel returns the relation op reads or updates in place, if any: a
// match's, an update's or a check's. A HiLog match or call reads a relation named per
// row, which may be any; its name is not ground.
func opRel(op any) (RelRef, bool) {
	switch op := op.(type) {
	case *Match:
		return op.Rel, true
	case *DynMatch:
		return RelRef{Name: op.Pred, Arity: op.Arity}, true
	case *DynCall:
		return RelRef{Name: op.Pred, Arity: len(op.Args)}, true
	case *Update:
		return op.Rel, true
	case *UnchangedChk:
		return op.Rel, true
	case *EmptyChk:
		return op.Rel, true
	}
	return RelRef{}, false
}
