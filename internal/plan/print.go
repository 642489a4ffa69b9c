package plan

import (
	"fmt"
	"strings"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

// Formatting of compiled plans, for the -plan flag of cmd/gluenail and for
// tests: it shows the pipeline segments, break placement, duplicate
// elimination decisions, and index masks the compiler chose — the
// compile-time work §9 of the paper describes.

// FormatProc renders a compiled procedure.
func FormatProc(p *Proc) string {
	return formatProc(p, func(sb *strings.Builder, steps []Step, _ *Stmt, depth int) {
		writeSteps(sb, steps, depth)
	})
}

// stepsWriter writes the segments of a statement body, or of an
// until-condition when st is nil.
type stepsWriter func(sb *strings.Builder, steps []Step, st *Stmt, depth int)

// formatProc renders a procedure: its header line, its locals and its
// instructions, the lines the logical and physical renderings share, with
// the segments written by steps.
func formatProc(p *Proc, steps stepsWriter) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "proc %s (%d:%d)", p.ID, p.Bound, p.Free)
	if p.Fixed {
		sb.WriteString(" fixed")
	}
	sb.WriteByte('\n')
	if len(p.Locals) > 0 {
		sb.WriteString("  locals:")
		for _, l := range p.Locals {
			fmt.Fprintf(&sb, " %s/%d", l.Name, l.Arity)
		}
		sb.WriteByte('\n')
	}
	writeInstrs(&sb, p.Body, 1, steps)
	return sb.String()
}

func writeInstrs(sb *strings.Builder, instrs []Instr, depth int, steps stepsWriter) {
	ind := strings.Repeat("  ", depth)
	for _, in := range instrs {
		switch in := in.(type) {
		case *ExecStmt:
			st := in.S
			sb.WriteString(ind)
			fmt.Fprintf(sb, "stmt %s %s", headText(st.Head), st.Op)
			if st.KeyMask != 0 {
				fmt.Fprintf(sb, " key=%b", st.KeyMask)
			}
			fmt.Fprintf(sb, " (%d regs", st.NRegs)
			if st.HasAgg {
				sb.WriteString(", aggregates")
			}
			if st.Move != nil {
				sb.WriteString(", move")
			}
			sb.WriteString(")\n")
			steps(sb, st.Steps, st, depth+1)
		case *Advance:
			fmt.Fprintf(sb, "%sadvance %s\n", ind, relText(in.Rel))
		case *Loop:
			sb.WriteString(ind)
			sb.WriteString("loop {\n")
			writeInstrs(sb, in.Body, depth+1, steps)
			sb.WriteString(ind)
			sb.WriteString("} until any of:\n")
			for _, c := range in.Until {
				sb.WriteString(ind)
				if c.Deltas != nil {
					sb.WriteString("  cond: empty")
					for _, d := range c.Deltas {
						sb.WriteString(" " + relText(d))
					}
					sb.WriteByte('\n')
					continue
				}
				fmt.Fprintf(sb, "  cond (%d regs):\n", c.NRegs)
				steps(sb, c.Steps, nil, depth+2)
			}
		}
	}
}

func writeSteps(sb *strings.Builder, steps []Step, depth int) {
	ind := strings.Repeat("  ", depth)
	for i, s := range steps {
		sb.WriteString(ind)
		fmt.Fprintf(sb, "segment %d", i)
		if s.Dedup {
			fmt.Fprintf(sb, " dedup(live=%v)", s.LiveRegs)
		}
		sb.WriteByte('\n')
		for _, op := range s.Pipe {
			sb.WriteString(ind)
			sb.WriteString("  ")
			sb.WriteString(pipeOpText(op))
			sb.WriteByte('\n')
		}
		if s.Barrier != nil {
			sb.WriteString(ind)
			sb.WriteString("  break: ")
			sb.WriteString(barrierText(s.Barrier))
			sb.WriteByte('\n')
		}
	}
}

func headText(h HeadSpec) string {
	if h.IsReturn {
		return "return" + patsText(h.Args)
	}
	return h.Ref.Name.String() + patsText(h.Args)
}

func relText(r RelRef) string {
	space := "edb"
	if r.Space == SpaceLocal {
		space = "local"
	}
	return fmt.Sprintf("%s:%s/%d%s", space, r.Name, r.Arity, [...]string{"", "[lo,hi)", "[0,hi)"}[r.Range])
}

func patsText(ps []term.Pattern) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func pipeOpText(op PipeOp) string {
	switch op := op.(type) {
	case *Match:
		neg := ""
		if op.Negated {
			neg = "not-"
		}
		return fmt.Sprintf("%smatch %s%s mask=%b bind=%v",
			neg, relText(op.Rel), patsText(op.Args), op.BoundMask, op.Bind)
	case *DynMatch:
		mode := "narrowed"
		if !op.Narrowed {
			mode = "runtime"
		}
		neg := ""
		if op.Negated {
			neg = "not-"
		}
		return fmt.Sprintf("%sdyn-match %s%s %s candidates=%d",
			neg, op.Pred, patsText(op.Args), mode, len(op.Candidates))
	case *Compare:
		return fmt.Sprintf("compare %s %s %s", exprText(op.L), op.Op, exprText(op.R))
	case *MatchBind:
		return fmt.Sprintf("bind %s = %s", op.Pat, exprText(op.E))
	}
	return fmt.Sprintf("%T", op)
}

func barrierText(b BarrierOp) string {
	switch b := b.(type) {
	case *Call:
		target := b.ProcID
		if target == "" {
			target = "builtin " + b.Builtin
		}
		neg := ""
		if b.Negated {
			neg = "not-"
		}
		fixed := ""
		if b.Fixed {
			fixed = " fixed"
		}
		return fmt.Sprintf("%scall %s%s->%s%s",
			neg, target, patsText(b.BoundArgs), patsText(b.FreeArgs), fixed)
	case *DynCall:
		return fmt.Sprintf("dyn-call %s%s families=%d", b.Pred, patsText(b.Args), len(b.Families))
	case *Aggregate:
		mode := "bind"
		if b.DestBound {
			mode = "select"
		}
		return fmt.Sprintf("aggregate $%d %s %s(%s)", b.Dest, mode, b.Op, exprText(b.Arg))
	case *GroupBy:
		return fmt.Sprintf("group-by %v", b.Regs)
	case *Update:
		verb := "insert"
		if b.Kind == ast.UpdateDelete {
			verb = "delete"
		}
		return fmt.Sprintf("update %s %s%s", verb, relText(b.Rel), patsText(b.Args))
	case *UnchangedChk:
		return fmt.Sprintf("unchanged site=%d %s", b.Site, relText(b.Rel))
	case *EmptyChk:
		return fmt.Sprintf("empty %s", relText(b.Rel))
	}
	return fmt.Sprintf("%T", b)
}

func exprText(e Expr) string {
	switch e := e.(type) {
	case ConstE:
		return e.V.String()
	case RegE:
		return fmt.Sprintf("$%d", e.Reg)
	case PatE:
		return e.P.String()
	case BinE:
		return fmt.Sprintf("(%s %s %s)", exprText(e.L), e.Op, exprText(e.R))
	case CallE:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = exprText(a)
		}
		return e.Fn + "(" + strings.Join(parts, ",") + ")"
	}
	return fmt.Sprintf("%T", e)
}
