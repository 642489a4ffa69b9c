package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gluenail"
	"gluenail/internal/vm"
)

func render(vals [][]gluenail.Value) string {
	var sb strings.Builder
	for _, row := range vals {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// shopScript drives every operation kind of the engine interface and
// returns the rendered answers in order.
func shopScript(t *testing.T, eng engine, d *shopData) []string {
	t.Helper()
	var out []string
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	script := &cadScript{}
	must(loadCad(eng, script))
	must(loadShop(eng, d))
	must(eng.Load(tcProgram))
	must(eng.Assert("edge", chainEdges(30)...))
	p, err := eng.Prepare("orders(3, O) & items(O, I, P) & P > 20")
	must(err)
	for i := 0; i < 2; i++ {
		res, err := p.Execute()
		must(err)
		out = append(out, fmt.Sprint(res.Vars), render(res.Rows))
	}
	res, err := eng.Query("tc(2, X)")
	must(err)
	out = append(out, fmt.Sprint(res.Vars), render(res.Rows))
	for _, call := range []struct {
		module, proc string
		in           [][]any
	}{
		{"main", "cust_items", [][]any{{1}, {5}, {1}}},
		{"main", "order_value", [][]any{{0}, {7}}},
		{"main", "tag_members", [][]any{{1}}},
		{"main", "add_item", [][]any{{2, 900001, 17}}},
		{"main", "add_item", [][]any{{2, 900002, 18}}},
		{"main", "recent_items", nil},
		{"main", "del_item", [][]any{{2, 900001, 17}}},
		{"main", "recent_items", nil},
	} {
		vals, err := eng.Call(call.module, call.proc, call.in...)
		must(err)
		out = append(out, render(vals))
	}
	script.arm(5, 6)
	vals, err := eng.Call("example", "select")
	must(err)
	out = append(out, render(vals))
	must(eng.Assert("items", []any{4, 900003, 9}, []any{4, 900004, 10}))
	must(eng.Retract("items", []any{4, 900003, 9}))
	res, err = eng.Query("items(4, I, P)")
	must(err)
	out = append(out, render(res.Rows))
	rel, err := eng.Relation("items", 3)
	must(err)
	out = append(out, render(rel))
	ids, err := eng.Procs()
	must(err)
	out = append(out, strings.Join(ids, " "))
	st := eng.Stats()
	out = append(out, fmt.Sprintf("%+v", st.Exec))
	return out
}

// TestStagedParity holds the staged pipeline to the product's API: the
// same script gives byte-identical answers, procedure lists and executor
// counters on the volatile and on the durable disk configuration, each
// side reads the other's directory after a restart, and the staged machine
// carries gluenail.New()'s defaults.
func TestStagedParity(t *testing.T) {
	for _, cfgName := range []string{"mem volatile", "mem durable", "disk durable"} {
		t.Run(cfgName, func(t *testing.T) {
			d := genShop(rand.New(rand.NewSource(3)), 40, 3, 4, 3, 5)
			cfgs := [2]engineConfig{}
			if cfgName != "mem volatile" {
				cfgs[0].dir, cfgs[1].dir = filepath.Join(t.TempDir(), "api"), filepath.Join(t.TempDir(), "staged")
			}
			if cfgName == "disk durable" {
				for i := range cfgs {
					cfgs[i].backend, cfgs[i].cacheBlocks, cfgs[i].ckptBytes = "disk", 4, 2048
				}
			}
			api, err := openEngine(cfgs[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			st, err := openEngine(cfgs[1], tr)
			if err != nil {
				t.Fatal(err)
			}
			a, b := shopScript(t, api, d), shopScript(t, st, d)
			if len(a) != len(b) {
				t.Fatalf("%d answers from the API, %d from the staged pipeline", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("answer %d differs:\n api:    %.300s\n staged: %.300s", i, a[i], b[i])
				}
			}
			m := st.(*staged).machine
			if !m.PlanCache || !m.BatchKernels || !m.StatsOrdering || m.Materialized || m.StringKeyKernels ||
				m.LoopLimit != 1_000_000 || m.MaxDepth != vm.DefaultMaxDepth || m.Parallelism != 0 {
				t.Errorf("staged machine does not mirror gluenail.New() defaults: %+v", m)
			}
			if err := api.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if cfgs[0].dir == "" {
				return
			}
			// Cross-restart: each implementation recovers the other's
			// directory to the same relation.
			cfgs[0].dir, cfgs[1].dir = cfgs[1].dir, cfgs[0].dir
			api2, err := openEngine(cfgs[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			defer api2.Close()
			st2, err := openEngine(cfgs[1], newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			ra, err := api2.Relation("items", 3)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := st2.Relation("items", 3)
			if err != nil {
				t.Fatal(err)
			}
			if render(ra) != render(rb) || len(ra) == 0 {
				t.Errorf("after restart the API reads %d items from the staged directory, the staged pipeline %d from the API's", len(ra), len(rb))
			}
		})
	}
}

// TestSelfContained fails if the benchmark imports the product's own
// experiment code: its generators are copies, so that code can be
// refactored without silently editing the benchmark.
func TestSelfContained(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no source files found")
	}
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "gluenail/internal/bench" || strings.HasPrefix(path, "gluenail/cmd/") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
