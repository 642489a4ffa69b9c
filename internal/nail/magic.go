package nail

import (
	"slices"
	"strings"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
)

// Magic-set rewriting (§8.2): given the query adornment, the rule set is
// specialized so that only tuples relevant to the bound arguments are
// derived. Sideways information passing is left to right, matching Glue's
// evaluation order. Negated predicates use complete (all-free) extensions,
// which keeps the rewriting sound under stratified negation.

// magicName names the magic relation for an adorned predicate.
func magicName(pred, adorn string) string { return "m|" + pred + "|" + adorn }

func boundCount(adorn string) int { return strings.Count(adorn, "b") }

// boundArgs selects the terms at 'b' positions.
func boundArgs(args []ast.Term, adorn string) []ast.Term {
	out := make([]ast.Term, 0, boundCount(adorn))
	for i, a := range args {
		if adorn[i] == 'b' {
			out = append(out, a)
		}
	}
	return out
}

func (g *generator) buildMagic() error {
	g.magicMode = true
	type job struct {
		sym   *modsys.Symbol
		adorn string
	}
	done := map[string]bool{}
	var work []job
	request := func(sym *modsys.Symbol, adorn string) string {
		key := localName(sym.Name, adorn)
		if !done[key] {
			done[key] = true
			work = append(work, job{sym, adorn})
		}
		return adorn
	}
	request(g.target, g.adorn)
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		sym, adorn := j.sym, j.adorn
		predLocal := localName(sym.Name, adorn)
		g.declare(predLocal, flatArity(sym))
		hasBound := strings.ContainsRune(adorn, 'b')
		if hasBound {
			g.declare(magicName(sym.Name, adorn), boundCount(adorn))
		}
		for _, rule := range sym.Rules {
			headArgs := flatten(rule.Head)
			// Bound variables: those in the head's bound positions.
			bound := map[string]bool{}
			markTermVars(boundArgs(headArgs, adorn), bound)

			dr := drule{head: latom{name: predLocal, args: headArgs}}
			if hasBound {
				dr.body = append(dr.body, dgoal{local: &latom{
					name: magicName(sym.Name, adorn),
					args: boundArgs(headArgs, adorn),
				}})
			}
			for _, goal := range rule.Body {
				adornFor := func(bsym *modsys.Symbol, a *ast.AtomTerm) string {
					fargs := flatten(a)
					ad := make([]byte, len(fargs))
					for i, t := range fargs {
						if termVarsBound(t, bound) {
							ad[i] = 'b'
						} else {
							ad[i] = 'f'
						}
					}
					sub := request(bsym, string(ad))
					if strings.ContainsRune(sub, 'b') {
						// Magic rule: the bound arguments reaching this
						// occurrence, guarded by the rule's own magic and
						// the preceding body goals.
						g.declare(magicName(bsym.Name, sub), boundCount(sub))
						mr := drule{head: latom{
							name: magicName(bsym.Name, sub),
							args: boundArgs(fargs, sub),
						}}
						mr.body = append(mr.body, cloneGoals(dr.body)...)
						if len(mr.body) == 0 {
							mr.body = append(mr.body, trueGoal())
						}
						if !tautology(mr) {
							g.rules = append(g.rules, mr)
						}
					}
					return sub
				}
				dg, isAgg, err := g.flattenGoal(sym, goal, adornFor)
				if err != nil {
					return err
				}
				dr.agg = dr.agg || isAgg
				dr.body = append(dr.body, dg)
				// Binding propagation: positive goals bind their variables.
				if ag, ok := goal.(*ast.AtomGoal); ok && !ag.Negated {
					markTermVars(flatten(ag.Atom), bound)
					markTermVars([]ast.Term{ag.Atom.Pred}, bound)
				}
			}
			g.rules = append(g.rules, dr)
		}
	}
	// Seed: the magic set of the target starts from the in relation.
	seedVars := make([]ast.Term, 0, boundCount(g.adorn))
	for i := 0; i < boundCount(g.adorn); i++ {
		seedVars = append(seedVars, mkVar("B", i))
	}
	g.seeds = append(g.seeds, &ast.Assign{
		Op: ast.OpAssign,
		Head: &ast.AtomTerm{
			Pred: mkConst(magicName(g.target.Name, g.adorn)),
			Args: seedVars,
		},
		Body: []ast.Goal{&ast.AtomGoal{Atom: &ast.AtomTerm{
			Pred: mkConst("in"),
			Args: seedVars,
		}}},
	})
	g.targetLocal = localName(g.target.Name, g.adorn)
	return nil
}

// tautology reports whether r's head is one of its positive body atoms,
// as in m|tc|bf(X) :- m|tc|bf(X): such a rule derives nothing.
func tautology(r drule) bool {
	head := atomText(r.head)
	return slices.ContainsFunc(r.body, func(dg dgoal) bool {
		return dg.local != nil && !dg.neg && atomText(*dg.local) == head
	})
}

func atomText(l latom) string { return ast.FormatAssign(&ast.Assign{Head: latomAtom(l)}) }

// cloneGoals copies the dgoal slice (shallow: atoms/goals are shared,
// which is safe because the compiler never mutates them).
func cloneGoals(gs []dgoal) []dgoal {
	out := make([]dgoal, len(gs))
	copy(out, gs)
	return out
}
