package plan

import (
	"slices"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

// markMoves is the def-use pass (DESIGN §5.26). The semi-naive "d := nd",
// a NAIL! "return := p|ff" and a query's "return := p(...)" only copy one
// relation into another: it marks such statements of instrs, part of a
// procedure body, as moves when the source is dead afterwards. A return
// ends the procedure; otherwise every path onward must overwrite the
// source with ":=", or end the procedure, before anything reads it.
func markMoves(body, instrs []Instr) {
	for _, in := range instrs {
		switch in := in.(type) {
		case *ExecStmt:
			mv := moveShape(in.S)
			if mv != nil && mv.Src >= 0 && !in.S.Head.IsReturn {
				lv := liveness{slot: mv.Src, at: in.S}
				if lv.instrs(body, false, true); lv.liveOut {
					mv = nil
				}
			}
			in.S.Move = mv
		case *Loop:
			markMoves(body, in.Body)
		}
	}
}

// moveShape returns the move a statement is if its source is dead: a
// ":=" onto a frame relation whose body is one positive match of another
// frame relation, or one positive call to a compiled procedure with no
// bound arguments (constant ones onto a query's return), binding distinct
// variables in the head's order. The body may also match the 0-arity in()
// (a return's implicit goal) or repeat the source match, which filters
// nothing. A return whose body implies its in subgoal (ast.Assign.
// InImplied) moves whenever in holds a row: every source row joins exactly
// one in row, and the caller's barrier regroups results per input. An
// empty in still refuses the move, as the 0-arity in() must.
func moveShape(st *Stmt) *Move {
	if st.Op != ast.OpAssign || st.Head.Ref.Space != SpaceLocal {
		return nil
	}
	mv := Move{Src: -1, In: st.Head.InImplied}
	for _, step := range st.Steps {
		for _, op := range step.Pipe {
			m, ok := op.(*Match)
			switch {
			case !ok || m.Negated || m.Rel.Space != SpaceLocal:
				return nil
			case m.Rel.Slot == SlotIn && m.Rel.Arity == 0:
				mv.In = true
			case m.Rel.Slot == st.Head.Ref.Slot || mv.Src >= 0 && m.Rel.Slot != mv.Src ||
				!distinctVars(st.Head.Args, m.Args):
				return nil
			default:
				mv.Src = m.Rel.Slot
			}
		}
		if step.Barrier != nil {
			c, ok := step.Barrier.(*Call)
			if !ok || mv.Call != nil || c.ProcID == "" || c.Negated || len(c.BoundArgs) > 0 && !st.Head.Query ||
				!distinctVars(st.Head.Args, c.FreeArgs) {
				return nil
			}
			in := make(term.Tuple, len(c.BoundArgs))
			for i, a := range c.BoundArgs {
				if a.Kind != term.PatGround {
					return nil
				}
				in[i] = a.Val
			}
			mv.Call, mv.Input = c, []term.Tuple{in}
		}
	}
	if (mv.Call != nil) == (mv.Src >= 0) {
		return nil
	}
	found := mv
	return &found
}

// distinctVars reports whether args are the head's variables, in order,
// each bound once.
func distinctVars(head, args []term.Pattern) bool {
	if len(head) != len(args) {
		return false
	}
	for i, p := range head {
		if p.Kind != term.PatVar || args[i].Kind != term.PatVar || args[i].Reg != p.Reg {
			return false
		}
		for _, q := range head[:i] {
			if q.Reg == p.Reg {
				return false
			}
		}
	}
	return true
}

// liveness scans a procedure body backwards for one frame slot, which is
// live where some path onward reads it before a ":=" overwrites it.
// liveOut is the slot's liveness after statement at.
type liveness struct {
	slot    int
	at      *Stmt
	liveOut bool
}

// instrs returns whether the slot is live before instrs, given whether it
// is live after them. record is false while a loop is still iterated to
// its fixed point.
func (lv *liveness) instrs(instrs []Instr, live, record bool) bool {
	for i := len(instrs) - 1; i >= 0; i-- {
		switch in := instrs[i].(type) {
		case *ExecStmt:
			st, h := in.S, in.S.Head.Ref
			live = live && !st.Head.IsReturn // a return ends the procedure
			if record && st == lv.at {
				lv.liveOut = live
			}
			kill := st.Op == ast.OpAssign && lv.is(h)
			// A computed head may name any relation; a kept head reads, and
			// a return that implies its in subgoal reads how many rows in has.
			live = live && !kill || !h.Name.IsGround() || lv.is(h) && !kill || lv.steps(st.Steps) ||
				st.Head.InImplied && lv.slot == SlotIn
		case *Loop:
			// The body runs, then the conditions; the loop exits or repeats.
			after := live
			for _, c := range in.Until {
				after = after || lv.steps(c.Steps) || slices.ContainsFunc(c.Deltas, lv.is)
			}
			top := false
			for next := lv.instrs(in.Body, after, false); next != top; next = lv.instrs(in.Body, after || top, false) {
				top = next
			}
			if record {
				lv.instrs(in.Body, after || top, true)
			}
			live = top
		}
	}
	return live
}

// is reports whether r is the slot.
func (lv *liveness) is(r RelRef) bool { return r.Space == SpaceLocal && r.Slot == lv.slot }

// steps reports whether a body may read the slot.
func (lv *liveness) steps(steps []Step) bool {
	for _, s := range steps {
		for _, op := range s.Pipe {
			if lv.reads(op) {
				return true
			}
		}
		if lv.reads(s.Barrier) {
			return true
		}
	}
	return false
}

// reads reports whether op may read the slot. A HiLog match or call may
// resolve to any frame relation.
func (lv *liveness) reads(op any) bool {
	ref, ok := opRel(op)
	return ok && (!ref.Name.IsGround() || lv.is(ref))
}
