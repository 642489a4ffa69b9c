package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"gluenail"
	"gluenail/internal/server"
	"gluenail/internal/term"
)

// serverMixed: the shop's query shapes through gluenaild's wire protocol on
// a durable system (mem store, WAL fsync=batch). Each connection runs a
// closed loop of 80% reads (execute of a session-prepared query, query
// text) and 20% writes (assert, retract) on its own customers' orders, plus
// reads of a shared partition nobody writes — so a per-connection model is
// an exact oracle whatever the interleaving.
type serverMixed struct {
	e       *env
	rng     *rand.Rand
	data    *shopData
	model   *shopModel
	sys     *gluenail.System
	srv     *server.Server
	lis     net.Listener
	serveCh chan error
	clients []*shopClient
	// twin is the traced run's in-process replica: every traced operation
	// is replayed on it, which gives the cost of the same operation without
	// wire, session and log.
	twin     *gluenail.System
	twinPrep map[string]*gluenail.Prepared
	wire     wireCounts
	stats0   map[string]int64
	nextNew  int // next never-used item id
	// eng is the system after the server phase: reopened from disk for the
	// read-back and the recovery cycles (the staged pipeline in the traced
	// run, so engine open and WAL replay get their own spans).
	eng engine
}

// wireConn is what a connection's closed loop needs from a client; the
// product's server.Client provides it in the untraced runs, tracedClient
// in the traced run.
type wireConn interface {
	Prepare(name, goals string) ([]string, error)
	Execute(name string) (*server.QueryResult, error)
	Query(goals string) (*server.QueryResult, error)
	Assert(relation string, rows ...[]any) error
	Retract(relation string, rows ...[]any) error
	Stats() (map[string]int64, uint64, error)
	Close() error
}

// shopClient is one connection: its key partition, its planned operations
// and its own latency samples.
type shopClient struct {
	conn     wireConn
	lo, hi   int   // own customers [lo, hi)
	hot      []int // customers with a session-prepared query (own and shared)
	pool     []adhocGoal
	pending  [][3]int
	ops      []shopOp
	reads    []float64
	writes   []float64
	rows     int
	prepared map[int]string
}

var serverSegment = []struct{ kind, n int }{
	{opExec, 50}, {opAdhoc, 20}, {opCallValue, 10}, {opAdd, 10}, {opDel, 10},
}

const (
	serverClients   = 2
	serverHot       = 32 // prepared queries per partition per connection
	serverPool      = 100
	serverSegments  = 1 // segments per connection per window
	serverCustomers = 1500
)

func (w *serverMixed) setup(e *env) error {
	w.e = e
	w.rng = rand.New(rand.NewSource(e.seed))
	nClients := serverClients
	if e.single {
		nClients = 1
	}
	// Customers split into a shared read-only third and the clients' own
	// partitions.
	per := e.size(serverCustomers)/3 + serverHot
	w.data = genShop(w.rng, per*(1+serverClients), glueOrdersPer, glueItemsPer, 1, 1)
	w.model = newShopModel(w.data)
	w.nextNew = w.data.nItems
	sys, err := openSystem(engineConfig{dir: e.dir, fs: e.fs})
	if err != nil {
		return err
	}
	w.sys = sys
	if err := loadShop(apiEngine{sys}, w.data); err != nil {
		return err
	}
	if e.tr != nil {
		e.tr.adoptAll = true
		if w.twin, err = openSystem(engineConfig{}); err != nil {
			return err
		}
		if err := loadShop(apiEngine{w.twin}, w.data); err != nil {
			return err
		}
		w.twinPrep = map[string]*gluenail.Prepared{}
	}
	if err := w.startServer(); err != nil {
		return err
	}
	for c := 0; c < nClients; c++ {
		cl := &shopClient{lo: per * (1 + c), hi: per * (2 + c), prepared: map[int]string{}}
		if e.tr != nil {
			cl.conn, err = dialTraced(w.lis.Addr().String(), e.tr, &w.wire)
		} else {
			cl.conn, err = server.Dial(w.lis.Addr().String(), 5*time.Second)
		}
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
		own := w.rng.Perm(per)
		shared := w.rng.Perm(per)
		for i := 0; i < serverHot; i++ {
			cl.hot = append(cl.hot, cl.lo+own[i], shared[i])
		}
		for _, cust := range cl.hot {
			name := fmt.Sprint("q", cust)
			goal := fmt.Sprintf("orders(%d, O) & items(O, I, P) & P > 20", cust)
			if _, err := cl.conn.Prepare(name, goal); err != nil {
				return err
			}
			cl.prepared[cust] = name
			if w.twin != nil {
				if w.twinPrep[name], err = w.twin.Prepare(goal); err != nil {
					return err
				}
			}
		}
		for i := 0; i < serverPool; i++ {
			cust := cl.lo + own[(serverHot+i)%per]
			if i%2 == 1 {
				cust = shared[(serverHot+i)%per]
			}
			g := adhocGoal{cust: cust, minP: 10 * (1 + i%8)}
			cl.pool = append(cl.pool, g)
			if _, err := cl.conn.Query(g.text()); err != nil {
				return err
			}
		}
	}
	if err := warmUp(w); err != nil {
		return err
	}
	if w.stats0, _, err = w.clients[0].conn.Stats(); err != nil {
		return err
	}
	return nil
}

func (w *serverMixed) startServer() error {
	srv, err := server.New(server.Config{System: w.sys})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv, w.lis = srv, lis
	w.serveCh = make(chan error, 1)
	go func() { w.serveCh <- srv.Serve(lis) }()
	return nil
}

// stopServer closes the connections, drains the server and waits for its
// accept loop to end.
func (w *serverMixed) stopServer() error {
	if w.srv == nil {
		return nil
	}
	for _, cl := range w.clients {
		_ = cl.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.serveCh; err == nil {
		err = serr
	}
	w.srv = nil
	return err
}

func (w *serverMixed) plan() {
	for _, cl := range w.clients {
		cl.ops = cl.ops[:0]
		for s := 0; s < serverSegments; s++ {
			for _, kind := range segmentKinds(w.rng, serverSegment) {
				op := shopOp{kind: kind}
				switch kind {
				case opExec:
					cust := cl.hot[w.rng.Intn(len(cl.hot))]
					op.args = []int{cust}
					op.want = w.model.itemsOf(w.model.custOrders[cust], 21)
				case opAdhoc:
					g := cl.pool[w.rng.Intn(len(cl.pool))]
					op.goal = g.text()
					op.want = w.model.itemsOf(w.model.custOrders[g.cust], g.minP)
				case opCallValue:
					// An order of an own or a shared customer.
					cust := cl.hot[w.rng.Intn(len(cl.hot))]
					o := cust*w.data.ordersPer + w.rng.Intn(w.data.ordersPer)
					op.goal = fmt.Sprintf("order_value(%d, V)", o)
					for _, r := range w.model.orderValues([]int{o}) {
						op.want = append(op.want, r[1:])
					}
				case opAdd:
					cust := cl.lo + w.rng.Intn(cl.hi-cl.lo)
					o := cust*w.data.ordersPer + w.rng.Intn(w.data.ordersPer)
					i, p := w.nextNew, 1+w.rng.Intn(100)
					w.nextNew++
					op.args = []int{o, i, p}
					w.model.addItem(o, i, p)
					cl.pending = append(cl.pending, [3]int{o, i, p})
				case opDel:
					k := w.rng.Intn(len(cl.pending))
					d := cl.pending[k]
					cl.pending = append(cl.pending[:k], cl.pending[k+1:]...)
					op.args = []int{d[0], d[1], d[2]}
					w.model.delItem(d[0], d[1], d[2])
				}
				cl.ops = append(cl.ops, op)
			}
		}
	}
}

// do performs one operation over the wire.
func (cl *shopClient) do(op *shopOp) {
	var res *server.QueryResult
	switch op.kind {
	case opExec:
		res, op.err = cl.conn.Execute(cl.prepared[op.args[0]])
	case opAdhoc, opCallValue:
		res, op.err = cl.conn.Query(op.goal)
	case opAdd:
		op.err = cl.conn.Assert("items", []any{op.args[0], op.args[1], op.args[2]})
	case opDel:
		op.err = cl.conn.Retract("items", []any{op.args[0], op.args[1], op.args[2]})
	}
	if res != nil {
		op.vals = res.Rows
	}
}

func (cl *shopClient) loop(w *serverMixed) {
	for i := range cl.ops {
		op := &cl.ops[i]
		w.e.opBegin()
		start := time.Now()
		cl.do(op)
		lat := time.Since(start)
		w.e.opEnd()
		if op.write() {
			cl.writes = append(cl.writes, ms(lat))
			cl.rows++
		} else {
			cl.reads = append(cl.reads, ms(lat))
			cl.rows += len(op.vals)
		}
		if w.twin != nil {
			w.replay(op, lat)
		}
	}
}

// replay runs the operation the server just answered on the in-process
// twin, the way a server session would (a snapshot per read, the writer
// path per write), and checks the twin gives the same bytes.
func (w *serverMixed) replay(op *shopOp, roundTrip time.Duration) {
	var vals [][]gluenail.Value
	var err error
	start := time.Now()
	switch op.kind {
	case opExec, opAdhoc, opCallValue:
		var snap *gluenail.Snapshot
		if snap, err = w.twin.Snapshot(); err == nil {
			var res *gluenail.Result
			if op.kind == opExec {
				res, err = snap.Execute(w.twinPrep[fmt.Sprint("q", op.args[0])])
			} else {
				res, err = snap.Query(op.goal)
			}
			if res != nil {
				vals = res.Rows
			}
			_ = snap.Close()
		}
	case opAdd:
		err = w.twin.Assert("items", []any{op.args[0], op.args[1], op.args[2]})
		w.wire.twinAssert += time.Since(start)
	case opDel:
		err = w.twin.Retract("items", []any{op.args[0], op.args[1], op.args[2]})
	}
	w.wire.twin += time.Since(start)
	w.wire.roundTrip += roundTrip
	w.wire.ops++
	if err != nil || digestValues(vals) != digestValues(op.vals) {
		w.wire.twinMismatch++
	}
}

func (w *serverMixed) run(rec *recorder) (int, int) {
	var wg sync.WaitGroup
	for _, cl := range w.clients {
		cl.reads, cl.writes, cl.rows = cl.reads[:0], cl.writes[:0], 0
		wg.Add(1)
		go func(cl *shopClient) {
			defer wg.Done()
			cl.loop(w)
		}(cl)
	}
	wg.Wait()
	ops, nrows := 0, 0
	for _, cl := range w.clients {
		rec.reads = append(rec.reads, cl.reads...)
		rec.writes = append(rec.writes, cl.writes...)
		ops += len(cl.ops)
		nrows += cl.rows
	}
	return ops, nrows
}

func (w *serverMixed) check(rec *recorder) {
	for _, cl := range w.clients {
		for i := range cl.ops {
			op := &cl.ops[i]
			if op.write() {
				if op.err != nil {
					rec.fail("%s of %v: %v", map[bool]string{true: "assert", false: "retract"}[op.kind == opAdd], op.args, op.err)
				}
				continue
			}
			checkShopOp(rec, op)
		}
	}
	if w.wire.twinMismatch > 0 {
		rec.fail("%d answers differ between the server and the in-process twin", w.wire.twinMismatch)
		w.wire.twinMismatch = 0
	}
}

// finish drains the server, closes the system, reopens it from disk and
// reads back the items relation: every acknowledged assert is there, every
// acknowledged retract is gone.
func (w *serverMixed) finish(rec *recorder) {
	if st, _, err := w.clients[0].conn.Stats(); err == nil {
		if d := st["errors"] - w.stats0["errors"]; d != 0 {
			rec.fail("server counted %d failed statements", d)
		}
	} else {
		rec.fail("stats: %v", err)
	}
	if err := w.stopServer(); err != nil {
		rec.fail("server shutdown: %v", err)
	}
	if err := w.sys.Close(); err != nil {
		rec.fail("close: %v", err)
	}
	w.sys = nil
	if err := w.reopen(); err != nil {
		rec.fail("reopen: %v", err)
		return
	}
	readBackItems(rec, w.eng, w.model)
}

// readBackItems compares the system's whole items relation with the model.
func readBackItems(rec *recorder, eng engine, model *shopModel) {
	vals, err := eng.Relation("items", 3)
	if err != nil {
		rec.fail("read-back of items: %v", err)
		return
	}
	got, err := intRows(vals)
	if err != nil {
		rec.fail("read-back of items: %v", err)
		return
	}
	if d := diffRows(got, model.allItems()); d != "" {
		rec.fail("read-back of items: %s", d)
	}
}

// reopen closes the post-server system, if open, and opens the directory
// again.
func (w *serverMixed) reopen() error {
	if w.eng != nil {
		if err := w.eng.Close(); err != nil {
			return err
		}
		w.eng = nil
	}
	eng, err := openEngine(engineConfig{dir: w.e.dir, fs: w.e.fs}, w.e.tr)
	if err != nil {
		return err
	}
	w.eng = eng
	return eng.Load(shopProgram)
}

func (w *serverMixed) spaceAmp() (float64, error) {
	total, err := dirBytes(w.e.dir)
	if err != nil {
		return 0, err
	}
	return ratio(float64(total), float64(shopLiveBytes(w.data, w.model))), nil
}

// shopLiveBytes is the encoded size of every live user tuple of the shop.
func shopLiveBytes(d *shopData, m *shopModel) int64 {
	var n int64
	for _, rs := range [][][]any{d.custRows, d.orderRows} {
		for _, r := range rs {
			if t, err := toTuple(r); err == nil {
				n += int64(t.EncodedSize())
			}
		}
	}
	for _, r := range m.allItems() {
		n += int64(term.Tuple{term.NewInt(r[0]), term.NewInt(r[1]), term.NewInt(r[2])}.EncodedSize())
	}
	return n
}

// recoverCycle: a few writes so the log has a tail, then close, reopen,
// load the program and answer a first query.
func (w *serverMixed) recoverCycle(i int) (time.Duration, error) {
	row := []any{0, -1 - i, 1}
	if err := w.eng.Assert("items", row); err != nil {
		return 0, err
	}
	if err := w.eng.Retract("items", row); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := w.reopen(); err != nil {
		return 0, err
	}
	cust := w.clients[0].hot[0]
	res, err := w.eng.Query(fmt.Sprintf("orders(%d, O) & items(O, I, P)", cust))
	dt := time.Since(start)
	if err != nil {
		return 0, err
	}
	got, err := intRows(res.Rows)
	if err != nil {
		return 0, err
	}
	if d := diffRows(got, w.model.itemsOf(w.model.custOrders[cust], 0)); d != "" {
		return 0, fmt.Errorf("first read after reopen: %s", d)
	}
	return dt, nil
}

func (w *serverMixed) close() error {
	err := w.stopServer()
	if w.sys != nil {
		if cerr := w.sys.Close(); err == nil {
			err = cerr
		}
	}
	if w.eng != nil {
		if cerr := w.eng.Close(); err == nil {
			err = cerr
		}
	}
	if w.twin != nil {
		_ = w.twin.Close()
	}
	return err
}

func (w *serverMixed) info() map[string]any {
	return map[string]any{
		"clients": len(w.clients), "loop": "closed", "store": "mem", "durable": true, "fsync": "batch (product default)",
		"transport": "loopback TCP, server in the same process", "customers": w.data.customers,
		"items": len(w.data.itemRows), "ops_per_window": len(w.clients) * serverSegments * 100,
		"mix":        "per connection per 100 ops: 50 execute, 20 query text, 10 query order_value(o, V), 10 assert, 10 retract",
		"op_latency": "op_p50_ms/op_p95_ms are the reads; write latency is the per-layer e2e.write_*",
		"rows_per_s": "rows returned plus rows written per second",
	}
}

func (w *serverMixed) layers() layerInput {
	wire := w.wire
	var engines []engine
	if w.sys != nil {
		engines = []engine{apiEngine{w.sys}}
	}
	return layerInput{engines: engines, tuples: anyTuples(w.data.itemRows),
		sources: []string{shopProgram}, goals: []string{w.clients[0].pool[0].text()},
		wire: &wire, userBytes: w.wire.userBytes, assertedRows: w.wire.asserted}
}

// ---- the traced client ----

// wireCounts is what the traced client measures at the wire.
type wireCounts struct {
	ops                      int
	roundTrip, twin          time.Duration
	twinAssert               time.Duration // the twin's time in Assert
	encode, decode           time.Duration
	framesOut, framesIn      int
	bytesSent, bytesReceived int64
	rowsReceived             int
	userBytes                int64
	asserted                 int
	twinMismatch             int
}

// metrics computes the server layer's numbers; wal is the time the traced
// operations spent in the log's file calls. The wire overhead is what is
// left of the round trip after the log and the in-process cost of the same
// operation (the twin's) are taken out.
func (c wireCounts) metrics(wal time.Duration) map[string]float64 {
	n := float64(c.ops)
	return map[string]float64{
		"server.roundtrip_us":        ratio(us(c.roundTrip), n),
		"server.wire_overhead_us":    ratio(us(c.roundTrip-c.twin-wal), n),
		"server.encode_us_per_frame": ratio(us(c.encode), float64(c.framesOut)),
		"server.decode_us_per_frame": ratio(us(c.decode), float64(c.framesIn)),
		"server.bytes_per_row":       ratio(float64(c.bytesReceived), float64(c.rowsReceived)),
		"server.bytes_sent":          float64(c.bytesSent),
		"server.bytes_received":      float64(c.bytesReceived),
	}
}

// timedConn counts bytes and remembers when the first byte of a response
// arrived, which splits a round trip into waiting for the server and
// decoding its answer.
type timedConn struct {
	net.Conn
	wc        *wireCounts
	firstByte time.Time
}

func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wc.bytesSent += int64(n)
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.firstByte.IsZero() {
		c.firstByte = time.Now()
	}
	c.wc.bytesReceived += int64(n)
	return n, err
}

// tracedClient speaks the product's wire protocol with the product's own
// WriteFrame and ReadFrame over a timed connection, recording a span for
// encoding the request, waiting for the server, and decoding the response.
type tracedClient struct {
	conn   *timedConn
	tr     *tracer
	wc     *wireCounts
	nextID uint64
}

func dialTraced(addr string, tr *tracer, wc *wireCounts) (*tracedClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &tracedClient{conn: &timedConn{Conn: conn, wc: wc}, tr: tr, wc: wc}
	if _, err := c.roundTrip(&server.Request{Op: "hello"}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *tracedClient) roundTrip(req *server.Request) (*server.Response, error) {
	root := c.tr.begin("server", "roundtrip")
	defer c.tr.end(root)
	c.nextID++
	req.ID = c.nextID
	start := time.Now()
	err := server.WriteFrame(c.conn, req)
	sent := time.Now()
	c.tr.leaf("server", "encode_request", start, sent.Sub(start))
	c.wc.encode += sent.Sub(start)
	c.wc.framesOut++
	if err != nil {
		return nil, err
	}
	c.conn.firstByte = time.Time{}
	var resp server.Response
	err = server.ReadFrame(c.conn, &resp)
	done := time.Now()
	if first := c.conn.firstByte; !first.IsZero() {
		c.tr.leaf("server", "decode_response", first, done.Sub(first))
		c.wc.decode += done.Sub(first)
		c.wc.framesIn++
	}
	if err != nil {
		return nil, err
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		if resp.Err == nil {
			return nil, fmt.Errorf("failure without error payload")
		}
		return nil, resp.Err
	}
	return &resp, nil
}

func (c *tracedClient) result(resp *server.Response, err error) (*server.QueryResult, error) {
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &server.QueryResult{Vars: resp.Vars, CSN: resp.CSN, Rows: make([][]term.Value, len(resp.Rows))}
	for i, row := range resp.Rows {
		r := make([]term.Value, len(row))
		for j, wv := range row {
			if r[j], err = server.DecodeValue(wv); err != nil {
				return nil, err
			}
		}
		res.Rows[i] = r
	}
	c.wc.decode += time.Since(start)
	c.wc.rowsReceived += len(res.Rows)
	return res, nil
}

func (c *tracedClient) Prepare(name, goals string) ([]string, error) {
	resp, err := c.roundTrip(&server.Request{Op: "prepare", Name: name, Goals: goals})
	if err != nil {
		return nil, err
	}
	return resp.Vars, nil
}

func (c *tracedClient) Execute(name string) (*server.QueryResult, error) {
	return c.result(c.roundTrip(&server.Request{Op: "execute", Name: name}))
}

func (c *tracedClient) Query(goals string) (*server.QueryResult, error) {
	return c.result(c.roundTrip(&server.Request{Op: "query", Goals: goals}))
}

func (c *tracedClient) write(op, relation string, rows [][]any) error {
	wr := make([][]server.WireValue, len(rows))
	for i, row := range rows {
		t, err := toTuple(row)
		if err != nil {
			return err
		}
		c.wc.userBytes += int64(t.EncodedSize())
		for _, v := range t {
			wr[i] = append(wr[i], server.EncodeValue(v))
		}
	}
	if op == "assert" {
		c.wc.asserted += len(rows)
	}
	rel := server.WireValue{K: "s", S: relation}
	_, err := c.roundTrip(&server.Request{Op: op, Rel: &rel, Rows: wr})
	return err
}

func (c *tracedClient) Assert(relation string, rows ...[]any) error {
	return c.write("assert", relation, rows)
}

func (c *tracedClient) Retract(relation string, rows ...[]any) error {
	return c.write("retract", relation, rows)
}

func (c *tracedClient) Stats() (map[string]int64, uint64, error) {
	resp, err := c.roundTrip(&server.Request{Op: "stats"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Counters, resp.CSN, nil
}

func (c *tracedClient) Close() error {
	_, _ = c.roundTrip(&server.Request{Op: "close"})
	return c.conn.Close()
}
