package vm

import (
	"fmt"
	"slices"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// applyBarrier runs a pipeline break over the batch: it reads the rows
// through their columns and extends the batch in place, or narrows its
// selection. groupRegs accumulates the statement's group_by registers.
func (f *frame) applyBarrier(b *batchState, op plan.BarrierOp, groupRegs *[]int) error {
	switch op := op.(type) {
	case *plan.Call:
		return f.applyCall(b, op)
	case *plan.DynCall:
		return f.applyDynCall(b, op)
	case *plan.Aggregate:
		return f.applyAggregate(b, op, *groupRegs)
	case *plan.GroupBy:
		*groupRegs = append(*groupRegs, op.Regs...)
		return nil
	case *plan.Update:
		row := b.scr.rowBuf
		rf := b.filler(plan.OpRegs(b.scr.regs[:0], op))
		for k := 0; k < b.active(); k++ {
			rf.fill(b.row(k), row)
			rel, err := f.resolveWrite(op.Rel, row)
			if err != nil {
				return err
			}
			tup, err := f.m.headRow(op.Args, row)
			if err != nil {
				return err
			}
			switch op.Kind {
			case ast.UpdateInsert:
				rel.Insert(tup)
				if err := f.checkRelBudget(rel); err != nil {
					return err
				}
			case ast.UpdateDelete:
				rel.Delete(tup)
			}
		}
		return nil
	case *plan.UnchangedChk:
		rel, err := f.resolveRead(op.Rel, nil)
		if err != nil {
			return err
		}
		var cur seenRel
		if rel != nil {
			cur.version = rel.Version()
		}
		if op.Rel.Space == plan.SpaceLocal {
			cur.rel = rel
		}
		if f.unchanged == nil {
			f.unchanged = map[int]seenRel{}
		}
		prev, seen := f.unchanged[op.Site]
		f.unchanged[op.Site] = cur
		if !seen || prev != cur {
			b.sel = b.newSel()
		}
		return nil
	case *plan.EmptyChk:
		rel, err := f.resolveRead(op.Rel, nil)
		if err != nil {
			return err
		}
		if rel != nil && rel.Len() != 0 {
			b.sel = b.newSel()
		}
		return nil
	}
	return fmt.Errorf("vm: unknown barrier %T", op)
}

// seenRel is what an unchanged site saw: a frame relation, which a move
// can replace, and its version. A stored relation never moves, and a
// store may wrap it anew per lookup (layered), so it keeps a version only.
type seenRel struct {
	rel     storage.Rel
	version uint64
}

// applyCall runs a procedure or builtin once on the distinct bindings of
// its input arguments, sorted (§4), and joins the results back onto the
// rows that bound them, in row order: a new level of the registers the
// free arguments bind, or, negated, a filter keeping the rows no result
// matches.
func (f *frame) applyCall(b *batchState, op *plan.Call) error {
	nb, row, regs := len(op.BoundArgs), b.scr.rowBuf, plan.OpRegs(b.scr.regs[:0], op)
	rf := b.filler(regs)
	// Each row's input tuple is built at the end of one slab and kept
	// there only if it is new; rowIn maps a row to its input's number.
	// The slab holds every row's input at most, so it never grows.
	slab := b.scr.grabValsCap(b.active() * nb)
	defer func() { b.scr.putVals(slab) }()
	var key term.Tuple
	input := func(d int32) term.Tuple { return slab[int(d)*nb : int(d+1)*nb : int(d+1)*nb] }
	eq := func(d int32) bool { return input(d).Equal(key) }
	rowIn := b.scr.grabIdx(b.n)
	defer b.scr.putIdx(rowIn)
	t := f.grabTable(b.active())
	defer f.releaseTable(t)
	nIn := int32(0)
	for k := 0; k < b.active(); k++ {
		i := b.row(k)
		rf.fill(i, row)
		base := len(slab)
		for a := range op.BoundArgs {
			v, err := op.BoundArgs[a].Build(row)
			if err != nil {
				return err
			}
			slab = append(slab, v)
		}
		key = slab[base:]
		d, found := t.FindOrAdd(key.Hash(), nIn, eq)
		if found {
			slab = slab[:base]
		} else {
			nIn++
		}
		rowIn[i] = d
	}
	in := slices.Grow(b.scr.ins[:0], int(nIn))[:nIn]
	b.scr.ins = in
	for d := range in {
		in[d] = input(int32(d))
	}
	slices.SortFunc(in, term.Tuple.Compare)
	join := func(results []term.Tuple) error {
		// Chain each result, in result order, to the input its bound prefix
		// equals: head[d] is input d's first result, next[j] result j's
		// successor (-1 ends a chain), size[d] the chain's length.
		head, tail, size := b.scr.grabIdx(int(nIn)), b.scr.grabIdx(int(nIn)), b.scr.grabIdx(int(nIn))
		next := b.scr.grabIdx(len(results))
		defer func() {
			for _, v := range [...][]int32{head, tail, size, next} {
				b.scr.putIdx(v)
			}
		}()
		for d := range head {
			head[d], size[d] = -1, 0
		}
		for j, r := range results {
			if want := nb + len(op.FreeArgs); len(r) != want {
				return fmt.Errorf("call result arity %d, want %d", len(r), want)
			}
			next[j], key = -1, r[:nb]
			d := t.Find(key.Hash(), eq)
			switch {
			case d < 0:
				continue
			case head[d] < 0:
				head[d] = int32(j)
			default:
				next[tail[d]] = int32(j)
			}
			tail[d] = int32(j)
			size[d]++
		}
		return f.batchJoin(b, op.FreeArgs, op.Bind, regs, op.Negated, func(p *matchProbe) error {
			p.reserve(int(size[rowIn[p.cur]]))
			for j := head[rowIn[p.cur]]; j >= 0; j = next[j] {
				if !p.yield(results[j][nb:]) {
					break
				}
			}
			return nil
		})
	}
	if op.ProcID == "" {
		impl, ok := f.m.Builtins.impl(op.Builtin)
		if !ok {
			return fmt.Errorf("no builtin %q", op.Builtin)
		}
		results, err := impl(f.m, in)
		if err != nil {
			return err
		}
		return join(results)
	}
	// The callee's return rows are joined in place, before its frame
	// drops them.
	return f.m.call(op.ProcID, in, func(callee *frame) error {
		return join(b.scr.returnRows(callee.rels[plan.SlotReturn]))
	})
}

// applyDynCall dispatches a HiLog subgoal whose candidates include NAIL!
// families: per row, the computed name either selects a family, whose
// generated procedure runs once per barrier and whose results carrying
// the name's arguments join the row, or falls back to the stored relation
// it names.
func (f *frame) applyDynCall(b *batchState, op *plan.DynCall) error {
	// famVals holds each family's results end to end once it has run.
	famVals := map[string][]term.Value{}
	family := func(name term.Value) *plan.FamilyCand {
		if name.Kind() != term.Compound {
			return nil
		}
		fn := name.Functor()
		if fn.Kind() != term.Str {
			return nil
		}
		for i := range op.Families {
			if op.Families[i].Base == fn.Str() && op.Families[i].NameArity == name.NumArgs() {
				return &op.Families[i]
			}
		}
		return nil
	}
	return f.batchJoin(b, op.Args, op.Bind, plan.OpRegs(b.scr.regs[:0], op), op.Negated, func(p *matchProbe) error {
		name, err := op.Pred.Build(p.rowBuf)
		if err != nil {
			return err
		}
		fam := family(name)
		if fam == nil {
			return p.lookup(f.dynResolve(name, len(op.Args), op.Narrowed, op.Candidates), 0)
		}
		k, nameArgs := fam.NameArity, name.Args()
		w := k + len(op.Args)
		res, ok := famVals[fam.ProcID]
		if !ok {
			// The family's rows outlive its frame: copy them out.
			err := f.m.call(fam.ProcID, unitIn, func(callee *frame) error {
				ret := callee.rels[plan.SlotReturn]
				res = make([]term.Value, 0, ret.Len()*w)
				for _, r := range b.scr.returnRows(ret) {
					res = append(res, r...)
				}
				return nil
			})
			if err != nil {
				return err
			}
			famVals[fam.ProcID] = res
		}
	results:
		for j := 0; j < len(res); j += w {
			r := res[j : j+w : j+w]
			for i := 0; i < k; i++ {
				if !nameArgs[i].Equal(r[i]) {
					continue results
				}
			}
			if !p.yield(r[k:]) {
				break
			}
		}
		return nil
	})
}
