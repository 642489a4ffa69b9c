package nail

import (
	"fmt"
	"slices"
	"sort"

	"gluenail/internal/ast"
	"gluenail/internal/term"
)

// Emission: stratify the flattened rules, then generate Glue statements —
// one batch of += statements per non-recursive predicate, and a
// repeat/until loop per recursive SCC (semi-naive with delta relations, or
// naive re-derivation for the baseline).

func mkConst(name string) *ast.Const {
	return &ast.Const{Val: term.NewString(name)}
}

func mkVar(prefix string, i int) *ast.VarTerm {
	return &ast.VarTerm{Name: fmt.Sprintf("%s%d", prefix, i)}
}

func wildcards(n int) []ast.Term {
	out := make([]ast.Term, n)
	for i := range out {
		out[i] = &ast.VarTerm{Name: "_"}
	}
	return out
}

func trueGoal() dgoal {
	one := &ast.TermExpr{T: &ast.Const{Val: term.NewInt(1)}}
	return dgoal{g: &ast.CmpGoal{Op: ast.CmpEq, L: one, R: one}}
}

func latomAtom(l latom) *ast.AtomTerm {
	return &ast.AtomTerm{Pred: mkConst(l.name), Args: l.args}
}

func dgoalGoal(dg dgoal) ast.Goal {
	if dg.local != nil {
		return &ast.AtomGoal{Atom: latomAtom(*dg.local), Negated: dg.neg}
	}
	return dg.g
}

func assignStmt(op ast.AssignOp, head latom, body []dgoal) ast.Stmt {
	goals := make([]ast.Goal, len(body))
	for i, dg := range body {
		goals[i] = dgoalGoal(dg)
	}
	return &ast.Assign{Op: op, Head: latomAtom(head), Body: goals}
}

// sccInfo is one strongly connected component of the local-predicate graph.
type sccInfo struct {
	members   []string
	memberSet map[string]bool
	recursive bool
}

// condense computes SCCs of the rule graph in dependency-first order.
func (g *generator) condense() []sccInfo {
	nodes := make([]string, 0, len(g.arities))
	for n := range g.arities {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	adj := map[string][]string{}
	selfLoop := map[string]bool{}
	for _, r := range g.rules {
		for _, dg := range r.body {
			if dg.local == nil {
				continue
			}
			adj[r.head.name] = append(adj[r.head.name], dg.local.name)
			if dg.local.name == r.head.name {
				selfLoop[r.head.name] = true
			}
		}
	}
	// Tarjan's algorithm.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps []sccInfo
	counter := 0
	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			comp := sccInfo{memberSet: map[string]bool{}}
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp.members = append(comp.members, w)
				comp.memberSet[w] = true
				if w == v {
					break
				}
			}
			sort.Strings(comp.members)
			comp.recursive = len(comp.members) > 1 ||
				selfLoop[comp.members[0]]
			comps = append(comps, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongConnect(v)
		}
	}
	return comps
}

// emitProc assembles the final procedure.
func (g *generator) emitProc() (*ast.Proc, error) {
	comps := g.condense()
	rulesOf := map[string][]drule{}
	for _, r := range g.rules {
		rulesOf[r.head.name] = append(rulesOf[r.head.name], r)
	}
	var body []ast.Stmt
	body = append(body, g.seeds...)
	for _, comp := range comps {
		// Stratification checks.
		for _, p := range comp.members {
			for _, r := range rulesOf[p] {
				for _, dg := range r.body {
					if dg.local == nil || !comp.memberSet[dg.local.name] {
						continue
					}
					if !comp.recursive {
						continue
					}
					if dg.neg {
						return nil, errf(g.u.module, g.target.Name,
							"not stratified: %s is negated inside its own recursion", dg.local.name)
					}
					if r.agg {
						return nil, errf(g.u.module, g.target.Name,
							"aggregation through recursion on %s is not stratified", p)
					}
				}
			}
		}
		if !comp.recursive {
			p := comp.members[0]
			for _, r := range rulesOf[p] {
				b := r.body
				if len(b) == 0 {
					b = []dgoal{trueGoal()}
				}
				body = append(body, assignStmt(ast.OpInsert, r.head, b))
			}
			continue
		}
		if g.opts.SemiNaive {
			body = append(body, g.emitSemiNaive(comp, rulesOf)...)
		} else {
			body = append(body, g.emitNaive(comp, rulesOf)...)
		}
	}
	// Return statement.
	bc := boundCount(g.adorn)
	headArgs := make([]ast.Term, 0, len(g.adorn))
	flatArgs := make([]ast.Term, len(g.adorn))
	bi, fi := 0, 0
	for i := range flatArgs {
		if g.adorn[i] == 'b' {
			flatArgs[i] = mkVar("B", bi)
			bi++
		} else {
			flatArgs[i] = mkVar("F", fi)
			fi++
		}
	}
	for i := 0; i < bi; i++ {
		headArgs = append(headArgs, mkVar("B", i))
	}
	for i := 0; i < fi; i++ {
		headArgs = append(headArgs, mkVar("F", i))
	}
	// When the seed m|p|a := in is the target's only magic rule, every
	// row of p|a has its bound columns in in: the return needs no join.
	seedOnly := g.magicMode && !slices.ContainsFunc(g.rules, func(r drule) bool {
		return r.head.name == magicName(g.target.Name, g.adorn)
	})
	body = append(body, &ast.Assign{
		Op:        ast.OpAssign,
		IsReturn:  true,
		InImplied: seedOnly,
		HeadBound: bc,
		Head:      &ast.AtomTerm{Pred: mkConst("return"), Args: headArgs},
		Body: []ast.Goal{&ast.AtomGoal{Atom: &ast.AtomTerm{
			Pred: mkConst(g.targetLocal), Args: flatArgs,
		}}},
	})
	// Assemble the procedure.
	proc := &ast.Proc{Name: g.target.Name + "@" + g.adorn}
	for i := 0; i < bc; i++ {
		proc.BoundParams = append(proc.BoundParams, fmt.Sprintf("B%d", i))
	}
	for i := 0; i < len(g.adorn)-bc; i++ {
		proc.FreeParams = append(proc.FreeParams, fmt.Sprintf("F%d", i))
	}
	names := make([]string, 0, len(g.arities))
	for n := range g.arities {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		proc.Locals = append(proc.Locals, ast.PredSig{Name: n, Free: g.arities[n]})
	}
	proc.Body = body
	return proc, nil
}

// emitSemiNaive generates the delta-driven loop for one recursive SCC,
// §10's uniondiff: each iteration inserts every rule variant, one SCC
// occurrence read from its delta, straight into the full relation, whose
// hash table drops what it holds; the next delta is the rows appended
// (ast.Advance). Inside the loop the full relations read up to their
// deltas' ends, so all variants of an iteration join the same rows.
func (g *generator) emitSemiNaive(comp sccInfo, rulesOf map[string][]drule) []ast.Stmt {
	var out []ast.Stmt
	delta := func(p string) string { return p + "|d" }
	advance := func(stmts []ast.Stmt) []ast.Stmt {
		for _, p := range comp.members {
			stmts = append(stmts, &ast.Advance{Delta: delta(p), Rel: p})
		}
		return stmts
	}
	// Exit rules: no positive occurrence of an SCC member.
	for _, p := range comp.members {
		for _, r := range rulesOf[p] {
			if countSCCOccurrences(r, comp.memberSet) > 0 {
				continue
			}
			b := r.body
			if len(b) == 0 {
				b = []dgoal{trueGoal()}
			}
			out = append(out, assignStmt(ast.OpInsert, r.head, b))
		}
	}
	out = advance(out)
	// Loop body: the delta-substituted variants, then the advance.
	var loop []ast.Stmt
	for _, p := range comp.members {
		for _, r := range rulesOf[p] {
			for j := range countSCCOccurrences(r, comp.memberSet) {
				loop = append(loop, assignStmt(ast.OpInsert, r.head,
					substituteDelta(r, comp.memberSet, j, delta)))
			}
		}
	}
	loop = advance(loop)
	// Terminate when every delta is empty.
	var until []ast.Goal
	for _, p := range comp.members {
		until = append(until, &ast.EmptyGoal{Atom: &ast.AtomTerm{
			Pred: mkConst(delta(p)), Args: wildcards(g.arities[p]),
		}})
	}
	out = append(out, &ast.Repeat{Body: loop, Until: [][]ast.Goal{until}})
	return out
}

// emitNaive generates the naive-evaluation loop: every rule re-derives its
// full extension each iteration until nothing changes.
func (g *generator) emitNaive(comp sccInfo, rulesOf map[string][]drule) []ast.Stmt {
	var loop []ast.Stmt
	for _, p := range comp.members {
		for _, r := range rulesOf[p] {
			b := r.body
			if len(b) == 0 {
				b = []dgoal{trueGoal()}
			}
			loop = append(loop, assignStmt(ast.OpInsert, r.head, b))
		}
	}
	var until []ast.Goal
	for _, p := range comp.members {
		until = append(until, &ast.UnchangedGoal{Atom: &ast.AtomTerm{
			Pred: mkConst(p), Args: wildcards(g.arities[p]),
		}})
	}
	return []ast.Stmt{&ast.Repeat{Body: loop, Until: [][]ast.Goal{until}}}
}

func countSCCOccurrences(r drule, members map[string]bool) int {
	n := 0
	for _, dg := range r.body {
		if dg.local != nil && !dg.neg && members[dg.local.name] {
			n++
		}
	}
	return n
}

// substituteDelta returns the rule body with the j-th positive SCC
// occurrence renamed to its delta relation.
func substituteDelta(r drule, members map[string]bool, j int,
	delta func(string) string) []dgoal {
	out := make([]dgoal, len(r.body))
	seen := 0
	for i, dg := range r.body {
		out[i] = dg
		if dg.local != nil && !dg.neg && members[dg.local.name] {
			if seen == j {
				out[i] = dgoal{local: &latom{
					name: delta(dg.local.name),
					args: dg.local.args,
				}}
			}
			seen++
		}
	}
	return out
}
