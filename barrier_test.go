package gluenail

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Barrier tests. Every kind of pipeline break — a call to a Glue
// procedure, to a registered Go procedure and a negated call; a HiLog call
// through a NAIL! family, its stored-relation fallback and a negated one;
// an aggregate alone, under cascaded group_by and with a bound
// destination; in-body updates, unchanged and empty — runs over body rows
// that repeat, and writes what reaches its head into a stored relation. The
// relations' insertion order is the body's row order (§9's nested-loop
// order, first occurrence kept), so the golden file pins the row order
// through each barrier, the distinct sorted inputs a Go procedure sees,
// and the executor counters of every call, on both backends and on the
// materialized and no-dedup baselines. Regenerate with
// `go test -run TestBarrierKinds -update`.

const barrierProg = `
edb src(K), fan(K, I), val(K, V), grp(K, G), sub(K, H), oddk(K),
    holder(S), attends(N, C), plain(X),
    seen(K), gone(K), log(K), note(K), nothing(X),
    r_glue(K, I, Y), r_go(K, I, Y), r_neg(K, I), r_fam(S, K, X), r_dneg(S, X),
    r_agg(N, T), r_grp(G, H, A, N), r_bound(K, V), r_gbound(G, K, V),
    r_upd(K, I), r_chk(K);

students(C)(N) :- attends(N, C).

proc double(X: Y)
  return(X: Y) := in(X) & Y = X * 2.
end

proc isodd(X:)
  return(X:) := in(X) & oddk(X).
end

proc call_glue(:)
  r_glue(K, I, Y) := src(K) & fan(K, I) & double(K, Y).
  return(:) := r_glue(_, _, _).
end

proc call_go(:)
  r_go(K, I, Y) := src(K) & fan(K, I) & triple(K, Y).
  return(:) := r_go(_, _, _).
end

proc call_neg(:)
  r_neg(K, I) := src(K) & fan(K, I) & !isodd(K).
  return(:) := r_neg(_, _).
end

proc dyn(:)
  r_fam(S, K, X) := holder(S) & fan(K, _) & src(K) & K < 3 & S(X).
  return(:) := r_fam(_, _, _).
end

proc dyn_neg(:)
  r_dneg(S, X) := holder(S) & attends(X, _) & !S(X).
  return(:) := r_dneg(_, _).
end

proc agg(:)
  r_agg(N, T) := src(K) & fan(K, I) & N = count(K) & T = sum(I).
  r_grp(G, H, A, N) := grp(K, G) & sub(K, H) & fan(K, I) & group_by(G) & A = count(I) & group_by(H) & N = sum(I).
  r_bound(K, V) := val(K, V) & fan(K, _) & V = max(V).
  r_gbound(G, K, V) := val(K, V) & grp(K, G) & fan(K, _) & group_by(G) & V = min(V).
  return(:) := r_agg(_, _).
end

proc upd(:)
  r_upd(K, I) := src(K) & fan(K, I) & ++seen(K) & --gone(K).
  return(:) := r_upd(_, _).
end

proc checks(:)
  repeat
    log(K) += src(K) & fan(K, _).
    note(K) += src(K) & fan(K, _) & unchanged(log(_)).
  until unchanged(note(_));
  r_chk(K) := note(K) & fan(K, _) & empty(nothing(_)).
  return(:) := r_chk(_).
end
`

// barrierProcs are called in order; each writes the relations listed.
var barrierProcs = []struct {
	proc string
	rels []string
}{
	{"call_glue", []string{"r_glue/3"}},
	{"call_go", []string{"r_go/3"}},
	{"call_neg", []string{"r_neg/2"}},
	{"dyn", []string{"r_fam/3"}},
	{"dyn_neg", []string{"r_dneg/2"}},
	{"agg", []string{"r_agg/2", "r_grp/4", "r_bound/2", "r_gbound/3"}},
	{"upd", []string{"r_upd/2", "seen/1", "gone/1"}},
	{"checks", []string{"log/1", "note/1", "r_chk/1"}},
}

var barrierConfigs = []struct {
	name string
	opts []Option
}{
	{"mem", nil},
	{"disk", []Option{WithBackend("disk")}},
	{"materialized", []Option{WithBaseline("materialized")}},
	{"no-dedup", []Option{WithBaseline("no-dedup")}},
}

// runBarriers runs every barrier procedure on a fresh system and returns
// the stored rows, in insertion order, the Go procedure's inputs, and the
// per-call counters.
func runBarriers(t *testing.T, opts []Option) (rows, stats string) {
	t.Helper()
	sys := New(opts...)
	defer sys.Close()
	var goIn []string
	err := sys.Register("triple", 1, 1, false, func(in [][]Value) ([][]Value, error) {
		goIn = append(goIn, fmt.Sprint(in))
		out := make([][]Value, len(in))
		for i, r := range in {
			out[i] = []Value{r[0], Int(3 * r[0].Int())}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(barrierProg); err != nil {
		t.Fatal(err)
	}
	facts := []struct {
		rel  string
		rows [][]any
	}{
		{"src", [][]any{{3}, {1}, {4}, {5}, {2}}},
		{"val", [][]any{{1, 10}, {2, 20}, {3, 20}, {4, 5}, {5, 7}}},
		{"grp", [][]any{{1, "a"}, {2, "b"}, {3, "a"}, {4, "b"}, {5, "a"}}},
		{"sub", [][]any{{1, "x"}, {2, "y"}, {3, "y"}, {4, "x"}, {5, "x"}}},
		{"oddk", [][]any{{1}, {3}, {5}}},
		{"holder", [][]any{{Compound("students", Str("os"))}, {Str("plain")}, {Compound("students", Str("db"))}}},
		{"attends", [][]any{{"bob", "db"}, {"ann", "db"}, {"cal", "os"}, {"ann", "os"}}},
		{"plain", [][]any{{"zed"}, {"ann"}}},
		{"gone", [][]any{{4}, {9}, {2}}},
	}
	var fan [][]any
	for _, k := range []int{5, 2, 3, 1, 4} {
		for i := 0; i < 3; i++ {
			fan = append(fan, []any{k, i})
		}
	}
	facts = append(facts, struct {
		rel  string
		rows [][]any
	}{"fan", fan})
	for _, f := range facts {
		if err := sys.Assert(f.rel, f.rows...); err != nil {
			t.Fatal(err)
		}
	}
	var rb, sb strings.Builder
	for _, c := range barrierProcs {
		before := sys.Stats().Exec
		if _, err := sys.Call("main", c.proc); err != nil {
			t.Fatalf("%s: %v", c.proc, err)
		}
		after := sys.Stats().Exec
		fmt.Fprintf(&sb, "%s: breaks=%d deduped=%d materialized=%d\n", c.proc,
			after.PipelineBreaks-before.PipelineBreaks,
			after.RowsDeduped-before.RowsDeduped,
			after.TuplesMaterialized-before.TuplesMaterialized)
		for _, rel := range c.rels {
			name, arity, _ := strings.Cut(rel, "/")
			var n int
			fmt.Sscan(arity, &n)
			r, ok := sys.edb.Get(Str(name), n)
			if !ok {
				t.Fatalf("no relation %s", rel)
			}
			fmt.Fprintf(&rb, "%s: %v\n", rel, r.All())
		}
	}
	fmt.Fprintf(&rb, "triple inputs: %s\n", strings.Join(goIn, " "))
	return rb.String(), sb.String()
}

// TestBarrierKinds pins every barrier kind's row order and counters on
// each configuration; the rows must also agree across configurations.
func TestBarrierKinds(t *testing.T) {
	var got strings.Builder
	var first string
	for _, c := range barrierConfigs {
		rows, stats := runBarriers(t, c.opts)
		if first == "" {
			first = rows
		} else if rows != first {
			t.Errorf("%s stores rows\n%s\nmem stores\n%s", c.name, rows, first)
		}
		fmt.Fprintf(&got, "== %s\n%s%s", c.name, rows, stats)
	}
	const golden = "testdata/barriers.out"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("barrier output changed:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
