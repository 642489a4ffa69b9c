package ast

import (
	"fmt"
	"strings"

	"gluenail/internal/term"
)

// Printing renders AST nodes back to Glue source syntax. cmd/nailc uses it
// to show the Glue code generated from NAIL! rules; tests use it for golden
// comparisons.

// FormatModule renders a whole module.
func FormatModule(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s;\n", m.Name)
	if len(m.Exports) > 0 {
		sb.WriteString("export ")
		for i, s := range m.Exports {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeSig(&sb, s)
		}
		sb.WriteString(";\n")
	}
	for _, imp := range m.Imports {
		fmt.Fprintf(&sb, "from %s import ", imp.From)
		for i, s := range imp.Sigs {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeSig(&sb, s)
		}
		sb.WriteString(";\n")
	}
	if len(m.EDB) > 0 {
		sb.WriteString("edb ")
		for i, s := range m.EDB {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeEDBSig(&sb, s)
		}
		sb.WriteString(";\n")
	}
	for _, r := range m.Rules {
		sb.WriteString(FormatRule(r))
		sb.WriteByte('\n')
	}
	for _, p := range m.Procs {
		sb.WriteString(FormatProc(p))
	}
	sb.WriteString("end\n")
	return sb.String()
}

func writeSig(sb *strings.Builder, s PredSig) {
	sb.WriteString(s.Name)
	sb.WriteByte('(')
	for i := 0; i < s.Bound; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "B%d", i+1)
	}
	sb.WriteByte(':')
	for i := 0; i < s.Free; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "F%d", i+1)
	}
	sb.WriteByte(')')
}

func writeEDBSig(sb *strings.Builder, s PredSig) {
	sb.WriteString(s.Name)
	sb.WriteByte('(')
	for i := 0; i < s.Arity(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "A%d", i+1)
	}
	sb.WriteByte(')')
}

// FormatProc renders a Glue procedure.
func FormatProc(p *Proc) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "proc %s(%s:%s)\n", p.Name,
		strings.Join(p.BoundParams, ","), strings.Join(p.FreeParams, ","))
	if len(p.Locals) > 0 {
		sb.WriteString("rels ")
		for i, l := range p.Locals {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeEDBSig(&sb, l)
		}
		sb.WriteString(";\n")
	}
	for _, st := range p.Body {
		writeStmt(&sb, st, 1)
	}
	sb.WriteString("end\n")
	return sb.String()
}

func writeStmt(sb *strings.Builder, st Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch s := st.(type) {
	case *Assign:
		sb.WriteString(ind)
		sb.WriteString(FormatAssign(s))
		sb.WriteByte('\n')
	case *Advance:
		fmt.Fprintf(sb, "%s%s := uniondiff(%s).\n", ind, term.NewString(s.Delta), term.NewString(s.Rel))
	case *Repeat:
		sb.WriteString(ind)
		sb.WriteString("repeat\n")
		for _, inner := range s.Body {
			writeStmt(sb, inner, depth+1)
		}
		sb.WriteString(ind)
		sb.WriteString("until ")
		if len(s.Until) > 1 {
			sb.WriteString("{ ")
		}
		for i, alt := range s.Until {
			if i > 0 {
				sb.WriteString(" | ")
			}
			writeGoals(sb, alt)
		}
		if len(s.Until) > 1 {
			sb.WriteString(" }")
		}
		sb.WriteString(";\n")
	}
}

// FormatAssign renders one assignment statement.
func FormatAssign(a *Assign) string {
	var sb strings.Builder
	if a.IsReturn {
		sb.WriteString("return(")
		for i, t := range a.Head.Args {
			if i == a.HeadBound {
				sb.WriteByte(':')
			} else if i > 0 {
				sb.WriteByte(',')
			}
			writeTerm(&sb, t)
		}
		if a.HeadBound == len(a.Head.Args) {
			sb.WriteByte(':')
		}
		sb.WriteByte(')')
	} else {
		writeAtom(&sb, a.Head)
	}
	switch a.Op {
	case OpAssign:
		sb.WriteString(" := ")
	case OpInsert:
		sb.WriteString(" += ")
	case OpDelete:
		sb.WriteString(" -= ")
	case OpModify:
		sb.WriteString(" +=[")
		sb.WriteString(strings.Join(a.Key, ","))
		sb.WriteString("] ")
	}
	writeGoals(&sb, a.Body)
	sb.WriteByte('.')
	return sb.String()
}

// FormatRule renders one NAIL! rule.
func FormatRule(r *Rule) string {
	var sb strings.Builder
	writeAtom(&sb, r.Head)
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		writeGoals(&sb, r.Body)
	}
	sb.WriteByte('.')
	return sb.String()
}

func writeGoals(sb *strings.Builder, goals []Goal) {
	for i, g := range goals {
		if i > 0 {
			sb.WriteString(" & ")
		}
		writeGoal(sb, g)
	}
}

func writeGoal(sb *strings.Builder, g Goal) {
	switch g := g.(type) {
	case *AtomGoal:
		if g.Negated {
			sb.WriteByte('!')
		}
		switch g.Update {
		case UpdateInsert:
			sb.WriteString("++")
		case UpdateDelete:
			sb.WriteString("--")
		}
		writeAtom(sb, g.Atom)
	case *CmpGoal:
		writeExpr(sb, g.L)
		sb.WriteByte(' ')
		sb.WriteString(g.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, g.R)
	case *AggGoal:
		fmt.Fprintf(sb, "%s = %s(", g.Var, g.Op)
		writeTerm(sb, g.Arg)
		sb.WriteByte(')')
	case *GroupByGoal:
		fmt.Fprintf(sb, "group_by(%s)", strings.Join(g.Vars, ","))
	case *UnchangedGoal:
		sb.WriteString("unchanged(")
		writeAtom(sb, g.Atom)
		sb.WriteByte(')')
	case *EmptyGoal:
		sb.WriteString("empty(")
		writeAtom(sb, g.Atom)
		sb.WriteByte(')')
	}
}

func writeAtom(sb *strings.Builder, a *AtomTerm) {
	writeTerm(sb, a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		writeTerm(sb, t)
	}
	sb.WriteByte(')')
}

func writeTerm(sb *strings.Builder, t Term) {
	switch t := t.(type) {
	case *Const:
		sb.WriteString(t.Val.String())
	case *VarTerm:
		sb.WriteString(t.Name)
	case *CompTerm:
		writeTerm(sb, t.Fn)
		sb.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeTerm(sb, a)
		}
		sb.WriteByte(')')
	}
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *TermExpr:
		writeTerm(sb, e.T)
	case *BinExpr:
		sb.WriteByte('(')
		writeExpr(sb, e.L)
		sb.WriteByte(' ')
		sb.WriteString(e.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, e.R)
		sb.WriteByte(')')
	case *NegExpr:
		sb.WriteString("-(")
		writeExpr(sb, e.X)
		sb.WriteByte(')')
	case *CallExpr:
		sb.WriteString(e.Fn)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeExpr(sb, a)
		}
		sb.WriteByte(')')
	}
}
