package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gluenail"
	"gluenail/internal/term"
)

// Oracles: plain-Go references the workloads check every answer against.
// None of them calls the system under test.

// rows is a result in the oracle's own form: integer tuples in the
// product's answer order (ascending, column by column).
type rows [][]int64

func sortRows(r rows) {
	sort.Slice(r, func(i, j int) bool {
		a, b := r[i], r[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// intRows converts a product result to integer tuples; a non-integer value
// is reported as an error (the workloads' relations hold integers only).
func intRows(vals [][]gluenail.Value) (rows, error) {
	out := make(rows, len(vals))
	for i, row := range vals {
		r := make([]int64, len(row))
		for j, v := range row {
			if v.Kind() != term.Int {
				return nil, fmt.Errorf("row %d column %d: %v is not an integer", i, j, v)
			}
			r[j] = v.Int()
		}
		out[i] = r
	}
	return out, nil
}

// diffRows reports the first difference between an answer and the
// oracle's expectation, or "" when they are identical.
func diffRows(got, want rows) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, oracle expects %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, oracle expects %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Sprintf("row %d is %v, oracle expects %v", i, got[i], want[i])
			}
		}
	}
	return ""
}

// digestValues hashes a product result exactly as rendered, for the
// byte-identity comparison between the product's API and the staged
// pipeline.
func digestValues(vals [][]gluenail.Value) uint64 {
	h := fnv.New64a()
	for _, row := range vals {
		for _, v := range row {
			h.Write([]byte(v.String()))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// chainReach is the closed form of tc(k, X) on the path 1 -> ... -> n+1.
func chainReach(k, n int) rows {
	out := make(rows, 0, n+1-k)
	for x := k + 1; x <= n+1; x++ {
		out = append(out, []int64{int64(x)})
	}
	return out
}

// reachPairs computes the transitive closure of a digraph by one
// breadth-first search per source node.
func reachPairs(edges [][2]int) rows {
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	var out rows
	for src := range adj {
		seen := map[int]bool{}
		queue := append([]int(nil), adj[src]...)
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if seen[n] {
				continue
			}
			seen[n] = true
			out = append(out, []int64{int64(src), int64(n)})
			queue = append(queue, adj[n]...)
		}
	}
	sortRows(out)
	return out
}

// sameGeneration computes sg directly from its definition over
// (child, parent) edges: siblings, then pairs whose parents are already in
// the relation, to a fixpoint.
func sameGeneration(parent [][2]int) rows {
	children := map[int][]int{}
	for _, e := range parent {
		children[e[1]] = append(children[e[1]], e[0])
	}
	type pair [2]int
	sg := map[pair]bool{}
	var frontier []pair
	for _, kids := range children {
		for _, x := range kids {
			for _, y := range kids {
				if x != y && !sg[pair{x, y}] {
					sg[pair{x, y}] = true
					frontier = append(frontier, pair{x, y})
				}
			}
		}
	}
	for len(frontier) > 0 {
		var next []pair
		for _, p := range frontier {
			for _, x := range children[p[0]] {
				for _, y := range children[p[1]] {
					if !sg[pair{x, y}] {
						sg[pair{x, y}] = true
						next = append(next, pair{x, y})
					}
				}
			}
		}
		frontier = next
	}
	out := make(rows, 0, len(sg))
	for p := range sg {
		out = append(out, []int64{int64(p[0]), int64(p[1])})
	}
	sortRows(out)
	return out
}

// ---- the shop model ----

// shopModel is the map-based EDB model of the shop schema: what a client
// that remembers its own acknowledged writes knows the database holds.
type shopModel struct {
	custOrders map[int][]int
	orderItems map[int]map[[2]int]bool // order -> set of (item, price)
	tags       map[int][]int
	recent     map[int]bool
}

func newShopModel(d *shopData) *shopModel {
	m := &shopModel{custOrders: map[int][]int{}, orderItems: map[int]map[[2]int]bool{},
		tags: d.tags, recent: map[int]bool{}}
	for _, r := range d.orderRows {
		c, o := r[0].(int), r[1].(int)
		m.custOrders[c] = append(m.custOrders[c], o)
	}
	for _, r := range d.itemRows {
		m.addItem(r[0].(int), r[1].(int), r[2].(int))
	}
	return m
}

func (m *shopModel) addItem(o, i, p int) {
	set := m.orderItems[o]
	if set == nil {
		set = map[[2]int]bool{}
		m.orderItems[o] = set
	}
	set[[2]int{i, p}] = true
}

func (m *shopModel) delItem(o, i, p int) { delete(m.orderItems[o], [2]int{i, p}) }

// itemsOf returns (O, I, P) for the given orders with P >= minPrice,
// optionally prefixed by the customer column.
func (m *shopModel) itemsOf(orders []int, minPrice int, prefix ...int64) rows {
	var out rows
	for _, o := range orders {
		for ip := range m.orderItems[o] {
			if ip[1] >= minPrice {
				r := append(append([]int64(nil), prefix...), int64(o), int64(ip[0]), int64(ip[1]))
				out = append(out, r)
			}
		}
	}
	sortRows(out)
	return out
}

// custItems is cust_items(C: O, I, P) over a set of customers.
func (m *shopModel) custItems(custs []int) rows {
	var out rows
	seen := map[int]bool{}
	for _, c := range custs {
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, m.itemsOf(m.custOrders[c], 0, int64(c))...)
	}
	sortRows(out)
	return out
}

// orderValues is order_value(O: V) over a set of orders: orders without
// items yield no row.
func (m *shopModel) orderValues(orders []int) rows {
	var out rows
	seen := map[int]bool{}
	for _, o := range orders {
		if seen[o] || len(m.orderItems[o]) == 0 {
			continue
		}
		seen[o] = true
		sum := 0
		for ip := range m.orderItems[o] {
			sum += ip[1]
		}
		out = append(out, []int64{int64(o), int64(sum)})
	}
	sortRows(out)
	return out
}

func (m *shopModel) tagMembers(t int) rows {
	out := make(rows, 0, len(m.tags[t]))
	for _, i := range m.tags[t] {
		out = append(out, []int64{int64(t), int64(i)})
	}
	sortRows(out)
	return out
}

func (m *shopModel) recentItems() rows {
	var orders []int
	for o := range m.recent {
		orders = append(orders, o)
	}
	return m.itemsOf(orders, 0)
}

// allItems is the whole items relation, for the restart read-back.
func (m *shopModel) allItems() rows {
	var out rows
	for o, set := range m.orderItems {
		for ip := range set {
			out = append(out, []int64{int64(o), int64(ip[0]), int64(ip[1])})
		}
	}
	sortRows(out)
	return out
}
