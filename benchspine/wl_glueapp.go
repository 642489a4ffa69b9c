package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gluenail"
)

//go:embed programs/cad.glue
var cadProgram string

// Operation kinds of the shop workloads.
const (
	opExec       = iota // Prepared.Execute of a hot customer's join
	opCallItems         // Call cust_items with a set of bound customers
	opCallValue         // Call order_value (aggregate) with a set of bound orders
	opCallTag           // Call tag_members: HiLog set dispatch
	opCallRecent        // Call recent_items: reads the small, swinging relation
	opCad               // Call the Figure 1 CAD select with a scripted user
	opAdhoc             // Query text drawn Zipf from the pool (seen before)
	opAdhocFresh        // Query text never seen before: parses and compiles
	opAdd               // Call add_item: += on items and recent
	opDel               // Call del_item: -= on items and recent
)

// shopOp is one planned operation with the oracle's expectation and,
// after run, the system's answer.
type shopOp struct {
	kind    int
	args    []int  // customers, orders, tag, or the (o, i, p) of a write
	goal    string // ad-hoc text
	want    rows
	wantAny map[string]bool // opCad: the acceptable keys
	vals    [][]gluenail.Value
	err     error
}

func (op *shopOp) write() bool { return op.kind == opAdd || op.kind == opDel }

// segment is the fixed operation mix the shop workloads repeat: 200
// operations with exact counts per kind, so every window holds the same
// mix whatever the seed. 70% prepared or bound calls, 20% ad-hoc text (an
// eighth of it never seen before), 10% update procedures.
var glueSegment = []struct{ kind, n int }{
	{opExec, 60}, {opCallItems, 40}, {opCallValue, 20}, {opCallTag, 12}, {opCallRecent, 6}, {opCad, 2},
	{opAdhoc, 35}, {opAdhocFresh, 5},
	{opAdd, 10}, {opDel, 10},
}

const (
	glueCustomers = 2000
	glueOrdersPer = 4
	glueItemsPer  = 5
	glueTags      = 50
	glueTagSize   = 40
	glueHot       = 64
	gluePool      = 2000 // distinct ad-hoc goal strings
	gluePoolCusts = 250
	glueSegments  = 10 // segments per window
	cadGrid       = 20
	cadTolerance  = 18
)

// glueApp: the paper's procedural half as an embedded application.
type glueApp struct {
	e       *env
	eng     engine
	rng     *rand.Rand
	data    *shopData
	model   *shopModel
	hot     []int
	preps   []prepared
	pool    []adhocGoal
	zipf    *rand.Zipf
	fresh   int
	nextNew int      // next never-used item id
	pending [][3]int // added and not yet deleted
	cad     *cadScript
	ops     []shopOp
}

type adhocGoal struct {
	cust, minP int
}

func (g adhocGoal) text() string {
	return fmt.Sprintf("orders(%d, O) & items(O, I, P) & P >= %d", g.cust, g.minP)
}

// cadScript feeds the CAD procedure's event/2 calls: a mouse click, a
// rejection, an acceptance.
type cadScript struct {
	queue [][2]gluenail.Value
}

func (c *cadScript) arm(x, y int) {
	c.queue = [][2]gluenail.Value{
		{gluenail.Str("mouse"), gluenail.Compound("p", gluenail.Int(int64(x)), gluenail.Int(int64(y)))},
		{gluenail.Str("keyboard"), gluenail.Str("n")},
		{gluenail.Str("keyboard"), gluenail.Str("y")},
	}
}

func (c *cadScript) next(in [][]gluenail.Value) ([][]gluenail.Value, error) {
	if len(in) == 0 || len(c.queue) == 0 {
		return nil, nil
	}
	e := c.queue[0]
	c.queue = c.queue[1:]
	return [][]gluenail.Value{{e[0], e[1]}}, nil
}

// loadCad registers the scripted user and loads the Figure 1 module with a
// grid of elements.
func loadCad(eng engine, script *cadScript) error {
	pass := func(in [][]gluenail.Value) ([][]gluenail.Value, error) { return in, nil }
	if err := eng.Register("event", 0, 2, true, script.next); err != nil {
		return err
	}
	if err := eng.Register("highlight", 1, 0, true, pass); err != nil {
		return err
	}
	if err := eng.Register("dehighlight", 1, 0, true, pass); err != nil {
		return err
	}
	if err := eng.Load(cadProgram); err != nil {
		return err
	}
	rows := make([][]any, 0, cadGrid*cadGrid)
	for y := 0; y < cadGrid; y++ {
		for x := 0; x < cadGrid; x++ {
			rows = append(rows, []any{cadKey(x, y), "origin",
				gluenail.Compound("p", gluenail.Int(int64(x)), gluenail.Int(int64(y))),
				gluenail.Compound("p", gluenail.Int(int64(x+1)), gluenail.Int(int64(y+1))), "solid"})
		}
	}
	if err := eng.Assert("element", rows...); err != nil {
		return err
	}
	return eng.Assert("tolerance", []any{cadTolerance})
}

func cadKey(x, y int) string { return fmt.Sprintf("el%d_%d", x, y) }

// cadAccept is the oracle for one scripted selection at (mx, my): the user
// rejects the first candidate and accepts the second, each an arbitrary
// choice among the nearest remaining elements within the tolerance, so the
// acceptable answers are the nearest set when it has two or more elements
// and the second-nearest set otherwise.
func cadAccept(mx, my int) map[string]bool {
	byDist := map[int][]string{}
	for y := 0; y < cadGrid; y++ {
		for x := 0; x < cadGrid; x++ {
			if d := (mx-x)*(mx-x) + (my-y)*(my-y); d < cadTolerance {
				byDist[d] = append(byDist[d], cadKey(x, y))
			}
		}
	}
	dists := make([]int, 0, len(byDist))
	for d := range byDist {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	level := dists[0]
	if len(byDist[level]) < 2 {
		level = dists[1]
	}
	out := map[string]bool{}
	for _, k := range byDist[level] {
		out[k] = true
	}
	return out
}

func (w *glueApp) setup(e *env) error {
	w.e = e
	w.rng = rand.New(rand.NewSource(e.seed))
	w.data = genShop(w.rng, e.size(glueCustomers)+glueHot, glueOrdersPer, glueItemsPer, glueTags, glueTagSize)
	w.model = newShopModel(w.data)
	w.nextNew = w.data.nItems
	eng, err := openEngine(engineConfig{fs: e.fs}, e.tr)
	if err != nil {
		return err
	}
	w.eng = eng
	w.cad = &cadScript{}
	if err := loadCad(eng, w.cad); err != nil {
		return err
	}
	if err := loadShop(eng, w.data); err != nil {
		return err
	}
	for _, c := range w.rng.Perm(w.data.customers)[:glueHot] {
		p, err := eng.Prepare(fmt.Sprintf("orders(%d, O) & items(O, I, P) & P > 20", c))
		if err != nil {
			return err
		}
		w.hot = append(w.hot, c)
		w.preps = append(w.preps, p)
	}
	// The ad-hoc pool: every text is issued once now, so in the timed phase
	// a pool draw is a query-cache hit and only the fresh share compiles.
	poolCusts := w.rng.Perm(w.data.customers)
	if len(poolCusts) > gluePoolCusts {
		poolCusts = poolCusts[:gluePoolCusts]
	}
	for len(w.pool) < e.size(gluePool) {
		g := adhocGoal{cust: poolCusts[len(w.pool)%len(poolCusts)], minP: 10 * (1 + len(w.pool)/len(poolCusts))}
		w.pool = append(w.pool, g)
		if _, err := eng.Query(g.text()); err != nil {
			return err
		}
	}
	w.rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	w.zipf = newZipf(w.rng, 1.1, len(w.pool))
	// Warm-up: one window's worth of the mix, checked like any other.
	if err := warmUp(w); err != nil {
		return err
	}
	return nil
}

// loadShop loads the shop program and its generated EDB, tag sets included.
func loadShop(eng engine, d *shopData) error {
	if err := eng.Load(shopProgram); err != nil {
		return err
	}
	if err := eng.Assert("customer", d.custRows...); err != nil {
		return err
	}
	if err := eng.Assert("orders", d.orderRows...); err != nil {
		return err
	}
	if err := eng.Assert("items", d.itemRows...); err != nil {
		return err
	}
	for t := 0; t < len(d.tags); t++ {
		set := gluenail.Compound("tagset", gluenail.Int(int64(t)))
		if err := eng.Assert("tagged", []any{t, set}); err != nil {
			return err
		}
		members := make([][]any, len(d.tags[t]))
		for i, item := range d.tags[t] {
			members[i] = []any{item}
		}
		if err := eng.Assert(set, members...); err != nil {
			return err
		}
	}
	return nil
}

// segmentKinds lays out one segment: reads shuffled, the adds in the first
// half and the deletes in the second, so recent/1 swings between a few and
// a dozen rows and its statistics epoch moves every segment.
func segmentKinds(rng *rand.Rand, mix []struct{ kind, n int }) []int {
	var reads []int
	adds, dels, total := 0, 0, 0
	for _, m := range mix {
		total += m.n
		switch m.kind {
		case opAdd:
			adds = m.n
		case opDel:
			dels = m.n
		default:
			for i := 0; i < m.n; i++ {
				reads = append(reads, m.kind)
			}
		}
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	out := make([]int, total)
	for i := range out {
		out[i] = -1
	}
	half := total / 2
	for _, p := range rng.Perm(half)[:adds] {
		out[p] = opAdd
	}
	for _, p := range rng.Perm(total - half)[:dels] {
		out[half+p] = opDel
	}
	next := 0
	for i := range out {
		if out[i] < 0 {
			out[i] = reads[next]
			next++
		}
	}
	return out
}

func (w *glueApp) pick(n, from int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w.rng.Intn(from)
	}
	return out
}

func (w *glueApp) plan() {
	w.ops = w.ops[:0]
	nOrders := w.data.customers * w.data.ordersPer
	for s := 0; s < glueSegments; s++ {
		for _, kind := range segmentKinds(w.rng, glueSegment) {
			op := shopOp{kind: kind}
			switch kind {
			case opExec:
				h := w.rng.Intn(len(w.hot))
				op.args = []int{h}
				op.want = w.model.itemsOf(w.model.custOrders[w.hot[h]], 21)
			case opCallItems:
				op.args = w.pick(4, w.data.customers)
				op.want = w.model.custItems(op.args)
			case opCallValue:
				op.args = w.pick(4, nOrders)
				op.want = w.model.orderValues(op.args)
			case opCallTag:
				op.args = []int{w.rng.Intn(len(w.data.tags))}
				op.want = w.model.tagMembers(op.args[0])
			case opCallRecent:
				op.want = w.model.recentItems()
			case opCad:
				op.args = []int{2 + w.rng.Intn(cadGrid-4), 2 + w.rng.Intn(cadGrid-4)}
				op.wantAny = cadAccept(op.args[0], op.args[1])
			case opAdhoc, opAdhocFresh:
				g := w.pool[w.zipf.Uint64()]
				op.goal = g.text()
				if kind == opAdhocFresh {
					// A text no system has seen: same answer, new constant.
					w.fresh++
					op.goal += fmt.Sprintf(" & I != %d", -w.fresh)
				}
				op.want = w.model.itemsOf(w.model.custOrders[g.cust], g.minP)
			case opAdd:
				o, i, p := w.rng.Intn(nOrders), w.nextNew, 1+w.rng.Intn(100)
				w.nextNew++
				op.args = []int{o, i, p}
				w.model.addItem(o, i, p)
				w.model.recent[o] = true
				w.pending = append(w.pending, [3]int{o, i, p})
			case opDel:
				k := w.rng.Intn(len(w.pending))
				d := w.pending[k]
				w.pending = append(w.pending[:k], w.pending[k+1:]...)
				op.args = []int{d[0], d[1], d[2]}
				w.model.delItem(d[0], d[1], d[2])
				delete(w.model.recent, d[0])
			}
			if op.write() {
				op.want = rows{{int64(op.args[0]), int64(op.args[1]), int64(op.args[2])}}
			}
			w.ops = append(w.ops, op)
		}
	}
}

func intArgs(a []int) [][]any {
	out := make([][]any, len(a))
	for i, v := range a {
		out[i] = []any{v}
	}
	return out
}

// exec performs one shop operation against the embedded engine.
func (w *glueApp) exec(op *shopOp) {
	var res *gluenail.Result
	switch op.kind {
	case opExec:
		res, op.err = w.preps[op.args[0]].Execute()
	case opCallItems:
		op.vals, op.err = w.eng.Call("main", "cust_items", intArgs(op.args)...)
	case opCallValue:
		op.vals, op.err = w.eng.Call("main", "order_value", intArgs(op.args)...)
	case opCallTag:
		op.vals, op.err = w.eng.Call("main", "tag_members", []any{op.args[0]})
	case opCallRecent:
		op.vals, op.err = w.eng.Call("main", "recent_items")
	case opCad:
		w.cad.arm(op.args[0], op.args[1])
		op.vals, op.err = w.eng.Call("example", "select")
	case opAdhoc, opAdhocFresh:
		res, op.err = w.eng.Query(op.goal)
	case opAdd:
		op.vals, op.err = w.eng.Call("main", "add_item", []any{op.args[0], op.args[1], op.args[2]})
	case opDel:
		op.vals, op.err = w.eng.Call("main", "del_item", []any{op.args[0], op.args[1], op.args[2]})
	}
	if res != nil {
		op.vals = res.Rows
	}
}

func (w *glueApp) run(rec *recorder) (int, int) {
	nrows := 0
	for i := range w.ops {
		op := &w.ops[i]
		w.e.opBegin()
		start := time.Now()
		w.exec(op)
		lat := ms(time.Since(start))
		w.e.opEnd()
		if op.write() {
			rec.writes = append(rec.writes, lat)
		} else {
			rec.reads = append(rec.reads, lat)
		}
		nrows += len(op.vals)
	}
	return len(w.ops), nrows
}

// checkShopOp compares one answer with the oracle.
func checkShopOp(rec *recorder, op *shopOp) {
	what := fmt.Sprintf("op kind %d %v %s", op.kind, op.args, op.goal)
	if op.err != nil {
		rec.fail("%s: %v", what, op.err)
		rec.digests = append(rec.digests, 0)
		return
	}
	if op.kind == opCad {
		rec.digests = append(rec.digests, digestValues(op.vals))
		if len(op.vals) != 1 || len(op.vals[0]) != 1 || !op.wantAny[op.vals[0][0].Str()] {
			rec.fail("%s: selected %v, oracle accepts %v", what, op.vals, op.wantAny)
		}
		return
	}
	checkRows(rec, what, op.vals, op.want)
}

func (w *glueApp) check(rec *recorder) {
	for i := range w.ops {
		checkShopOp(rec, &w.ops[i])
	}
}

// finish reads the whole items relation back and compares it with the
// model: every acknowledged update is there and nothing else.
func (w *glueApp) finish(rec *recorder) { readBackItems(rec, w.eng, w.model) }

func (w *glueApp) close() error { return w.eng.Close() }

func (w *glueApp) info() map[string]any {
	return map[string]any{
		"clients": 1, "loop": "closed", "store": "mem", "durable": false,
		"customers": w.data.customers, "orders": len(w.data.orderRows), "items": len(w.data.itemRows),
		"hot_prepared": len(w.preps), "adhoc_pool": len(w.pool), "adhoc_fresh_issued": w.fresh,
		"ops_per_window": glueSegments * 200,
		"mix":            "per 200 ops: 60 Execute, 40+20+12+6 bound Calls, 2 CAD select, 35 pooled + 5 never-seen ad-hoc Query, 10 add_item, 10 del_item",
		"op_latency":     "op_p50_ms/op_p95_ms are the read operations; the update procedures' latency is the per-layer e2e.write_*",
		"rows_per_s":     "rows returned plus rows written per second",
	}
}

func (w *glueApp) layers() layerInput {
	return layerInput{engines: []engine{w.eng}, tuples: anyTuples(w.data.itemRows),
		sources: []string{shopProgram, cadProgram},
		goals:   []string{w.pool[0].text(), w.pool[len(w.pool)-1].text()}}
}
