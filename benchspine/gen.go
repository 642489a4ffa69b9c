package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generators for the workloads' inputs. They are this package's own copies
// (the product's internal/bench is deliberately not imported), so a later
// refactor of the product's experiment code cannot change what the
// benchmark measures.

// tcProgram is the NAIL! transitive closure both recursion workloads run;
// sgProgram is the classic same-generation program.
const tcProgram = `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`

const sgProgram = `
edb parent(Child, Parent);
sibling(X, Y) :- parent(X, P) & parent(Y, P) & X != Y.
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP) & sg(XP, YP) & parent(Y, YP).
`

// chainEdges returns the edges of the path 1 -> 2 -> ... -> n+1.
func chainEdges(n int) [][]any {
	out := make([][]any, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, []any{i, i + 1})
	}
	return out
}

// sparseDigraph returns a layered sparse digraph: nodes sit in layers of
// width w, and every node gets deg edges to nodes of the next layer. Few
// semi-naive iterations (one per layer) derive many tuples. The topology is
// drawn from shape, a generator the caller seeds with the graph's index
// alone, and only the node labels and the edge order come from the run's
// seed: every seed then derives exactly as many tuples, so a difference
// between two runs is the system's and not the input's.
func sparseDigraph(shape, rng *rand.Rand, layers, w, deg int) [][2]int {
	n := layers * w
	label := rng.Perm(n)
	var edges [][2]int
	seen := map[[2]int]bool{}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < w; i++ {
			from := l*w + i
			for d := 0; d < deg; d++ {
				to := (l+1)*w + shape.Intn(w)
				e := [2]int{label[from] + 1, label[to] + 1}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// balancedTree returns the (child, parent) edges of a complete tree with
// the given branching and depth, node ids relabelled by a seeded
// permutation and offset so they do not collide with the digraph's.
func balancedTree(rng *rand.Rand, branching, depth, offset int) [][2]int {
	n := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= branching
		n += level
	}
	label := rng.Perm(n)
	var edges [][2]int
	for child := 1; child < n; child++ {
		par := (child - 1) / branching
		edges = append(edges, [2]int{offset + label[child], offset + label[par]})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func pairRows(p [][2]int) [][]any {
	out := make([][]any, len(p))
	for i, e := range p {
		out[i] = []any{e[0], e[1]}
	}
	return out
}

// syntheticProgram generates a module with nStmts assignment statements
// spread over procedures, shaped like application code: joins, filters,
// arithmetic, an occasional aggregate — plus a few NAIL! rules so the rule
// compiler runs too.
func syntheticProgram(nStmts int) string {
	var sb strings.Builder
	sb.WriteString("module synth;\n")
	sb.WriteString("edb r0(A,B), r1(A,B), r2(A,B), r3(A,B);\n")
	const perProc = 8
	stmt, proc := 0, 0
	for stmt < nStmts {
		fmt.Fprintf(&sb, "proc p%d(:)\nrels t%d(A,B);\n", proc, proc)
		for j := 0; j < perProc && stmt < nStmts; j++ {
			switch stmt % 4 {
			case 0:
				fmt.Fprintf(&sb, "  t%d(X,Z) := r%d(X,Y) & r%d(Y,Z).\n", proc, stmt%4, (stmt+1)%4)
			case 1:
				fmt.Fprintf(&sb, "  t%d(X,Y) += r%d(X,Y) & X != Y.\n", proc, stmt%4)
			case 2:
				fmt.Fprintf(&sb, "  t%d(X,W) += r%d(X,Y) & W = X*2 + Y.\n", proc, stmt%4)
			case 3:
				fmt.Fprintf(&sb, "  t%d(X,M) := r%d(X,Y) & group_by(X) & M = max(Y).\n", proc, stmt%4)
			}
			stmt++
		}
		fmt.Fprintf(&sb, "  return(:) := t%d(_,_).\nend\n", proc)
		proc++
	}
	sb.WriteString("path(X,Y) :- r0(X,Y).\n")
	sb.WriteString("path(X,Z) :- path(X,Y) & r1(Y,Z).\n")
	sb.WriteString("twohop(X,Z) :- r2(X,Y) & r3(Y,Z) & X != Z.\n")
	sb.WriteString("end\n")
	return sb.String()
}

// syntheticProcs lists the procedure IDs syntheticProgram(nStmts) defines,
// derived from the generator's parameters alone.
func syntheticProcs(nStmts int) []string {
	n := (nStmts + 7) / 8
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("synth.p%d", i)
	}
	return out
}

// ---- the shop schema (glue_app, server_mixed) ----

// shopProgram is the application both request workloads run: a
// customers -> orders -> items schema, bound-input procedures over it, a
// HiLog set dispatch, and update procedures. recent/1 is small and its
// size swings, so the update procedures move its statistics epoch.
const shopProgram = `
edb customer(C, R), orders(C, O), items(O, I, P), tagged(T, S), recent(O);

proc cust_items(C: O, I, P)
  return(C: O, I, P) := in(C) & orders(C, O) & items(O, I, P).
end

proc order_value(O: V)
  return(O: V) := in(O) & items(O, I, P) & group_by(O) & V = sum(P).
end

proc tag_members(T: I)
  return(T: I) := in(T) & tagged(T, S) & S(I).
end

proc recent_items(: O, I, P)
  return(: O, I, P) := recent(O) & items(O, I, P).
end

proc add_item(O, I, P:)
  items(O, I, P) += in(O, I, P).
  recent(O) += in(O, _, _).
  return(O, I, P:) := in(O, I, P).
end

proc del_item(O, I, P:)
  items(O, I, P) -= in(O, I, P).
  recent(O) -= in(O, _, _).
  return(O, I, P:) := in(O, I, P).
end
`

// shopData is the generated EDB of the shop schema.
type shopData struct {
	customers int
	ordersPer int
	itemsPer  int
	nItems    int
	custRows  [][]any
	orderRows [][]any
	itemRows  [][]any
	tags      map[int][]int // tag -> member item ids
}

// genShop draws the shop EDB: customers*ordersPer orders, itemsPer items
// per order with seeded item ids and prices, and nTags tag sets.
func genShop(rng *rand.Rand, customers, ordersPer, itemsPer, nTags, tagSize int) *shopData {
	d := &shopData{customers: customers, ordersPer: ordersPer, itemsPer: itemsPer,
		nItems: customers * ordersPer, tags: map[int][]int{}}
	o := 0
	for c := 0; c < customers; c++ {
		d.custRows = append(d.custRows, []any{c, c % 7})
		for k := 0; k < ordersPer; k++ {
			d.orderRows = append(d.orderRows, []any{c, o})
			seen := map[int]bool{}
			for j := 0; j < itemsPer; j++ {
				item := rng.Intn(d.nItems)
				for seen[item] {
					item = rng.Intn(d.nItems)
				}
				seen[item] = true
				d.itemRows = append(d.itemRows, []any{o, item, 1 + rng.Intn(100)})
			}
			o++
		}
	}
	for t := 0; t < nTags; t++ {
		seen := map[int]bool{}
		for len(d.tags[t]) < tagSize {
			item := rng.Intn(d.nItems)
			if !seen[item] {
				seen[item] = true
				d.tags[t] = append(d.tags[t], item)
			}
		}
	}
	return d
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
func newZipf(rng *rand.Rand, s float64, n int) *rand.Zipf {
	return rand.NewZipf(rng, s, 1, uint64(n-1))
}
