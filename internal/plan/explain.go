package plan

import (
	"fmt"
	"slices"
	"strings"

	"gluenail/internal/term"
)

// Rendering of physical plans for EXPLAIN and EXPLAIN ANALYZE: the logical
// rendering of print.go extended with the planner's chosen order, access
// paths, and cardinality estimates, plus the executor's observed per-op
// actuals when a profile is present.

// PhysFormatter renders procedures with their physical plans.
type PhysFormatter struct {
	// Plan supplies the physical segments for a statement body or an
	// until-condition (st is nil for conditions).
	Plan func(steps []Step, st *Stmt) []PhysStep
	// Profile supplies observed actuals for EXPLAIN ANALYZE; nil (or a nil
	// result) renders estimates only.
	Profile func(st *Stmt) *StmtProfile
}

// Proc renders one procedure with physical plans.
func (f *PhysFormatter) Proc(p *Proc) string {
	return formatProc(p, func(sb *strings.Builder, steps []Step, st *Stmt, depth int) {
		var prof *StmtProfile
		if st != nil && f.Profile != nil {
			prof = f.Profile(st)
		}
		if st != nil && st.Move != nil {
			writeMove(sb, p, st.Move, prof, depth)
			return
		}
		f.writePhysSteps(sb, f.Plan(steps, st), prof, depth)
	})
}

// writeMove renders a move in place of segments: its source, a frame
// relation or a forwarded call, and with a profile the rows it handed
// over.
func writeMove(sb *strings.Builder, p *Proc, mv *Move, prof *StmtProfile, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	if mv.Call != nil {
		sb.WriteString("move from " + barrierText(mv.Call))
	} else {
		src := p.Slot(mv.Src)
		fmt.Fprintf(sb, "move from local:%s/%d", term.Ground(term.NewString(src.Name)), src.Arity)
	}
	if prof != nil {
		fmt.Fprintf(sb, " [act_rows=%d]", prof.Moved)
	}
	sb.WriteByte('\n')
}

func (f *PhysFormatter) writePhysSteps(sb *strings.Builder, steps []PhysStep,
	prof *StmtProfile, depth int) {
	ind := strings.Repeat("  ", depth)
	for k, s := range steps {
		sb.WriteString(ind)
		fmt.Fprintf(sb, "segment %d", k)
		if s.Step.Dedup {
			fmt.Fprintf(sb, " dedup(live=%v)", s.Step.LiveRegs)
		}
		fmt.Fprintf(sb, " rows=%s", estText(s.EstIn))
		if prof != nil && k < len(prof.Steps) && prof.Steps[k].BuildNs > 0 {
			fmt.Fprintf(sb, " index-build=%.3fms", float64(prof.Steps[k].BuildNs)/1e6)
		}
		sb.WriteByte('\n')
		for _, po := range s.Ops {
			sb.WriteString(ind)
			sb.WriteString("  ")
			sb.WriteString(pipeOpText(po.Op))
			fmt.Fprintf(sb, " [%s est=%s", po.Access, estText(po.EstOut))
			if po.FromProfile {
				sb.WriteString("*")
			}
			if po.Store != "" {
				fmt.Fprintf(sb, " store=%s", po.Store)
			}
			if prof != nil && k < len(prof.Steps) && po.LogIdx < len(prof.Steps[k].Ops) {
				op := prof.Steps[k].Ops[po.LogIdx]
				fmt.Fprintf(sb, " act_in=%d act_out=%d", op.In, op.Out)
			}
			sb.WriteString("]\n")
		}
		if s.Step.Barrier != nil {
			sb.WriteString(ind)
			sb.WriteString("  break: ")
			sb.WriteString(barrierText(s.Step.Barrier))
			sb.WriteByte('\n')
		}
	}
}

// estText renders a cardinality estimate compactly and stably: whole
// numbers without a fraction, everything else with one decimal.
func estText(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// CalledProcs returns the IDs of the procedures transitively called from
// rootID (Call barriers and DynCall family candidates), excluding the root
// itself, in sorted order — the set EXPLAIN renders alongside the root so
// recursive NAIL! plans are visible.
func CalledProcs(prog *Program, rootID string) []string {
	seen := map[string]bool{rootID: true}
	var visit func(id string)
	var visitInstrs func(instrs []Instr)
	visitSteps := func(steps []Step) {
		for _, s := range steps {
			switch b := s.Barrier.(type) {
			case *Call:
				if b.ProcID != "" && !seen[b.ProcID] {
					seen[b.ProcID] = true
					visit(b.ProcID)
				}
			case *DynCall:
				for _, fc := range b.Families {
					if !seen[fc.ProcID] {
						seen[fc.ProcID] = true
						visit(fc.ProcID)
					}
				}
			}
		}
	}
	visitInstrs = func(instrs []Instr) {
		for _, in := range instrs {
			switch in := in.(type) {
			case *ExecStmt:
				visitSteps(in.S.Steps)
			case *Loop:
				visitInstrs(in.Body)
				for _, c := range in.Until {
					visitSteps(c.Steps)
				}
			}
		}
	}
	visit = func(id string) {
		if p, ok := prog.Procs[id]; ok {
			visitInstrs(p.Body)
		}
	}
	visit(rootID)
	delete(seen, rootID)
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
