package term

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// semanticsCorpus is the value corpus TestValueSemanticsGolden pins: the
// edge cases of each kind, every string both interned and not, a string
// that shares a longer string's bytes, and first-order, HiLog, nested and
// 0-ary compounds. The zero Value is included; the codec panics on it.
func semanticsCorpus() (names []string, vals []Value) {
	add := func(name string, v Value) {
		names = append(names, name)
		vals = append(vals, v)
	}
	add("zero", Value{})
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		add(fmt.Sprintf("int %d", i), NewInt(i))
	}
	for _, f := range []struct {
		name string
		f    float64
	}{
		{"0.0", 0}, {"-0.0", math.Copysign(0, -1)}, {"NaN", math.NaN()},
		{"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"1e-300", 1e-300},
	} {
		add("float "+f.name, NewFloat(f.f))
	}
	for _, s := range []string{"", "abc", "It's", "héllo·日本"} {
		add(fmt.Sprintf("string %q", s), NewString(s))
		add(fmt.Sprintf("interned %q", s), Intern(s))
	}
	long := "prefix_abc_suffix"
	add("substring \"abc\"", NewString(long[7:10]))
	add("atom f(1,abc)", Atom("f", NewInt(1), Intern("abc")))
	add("compound f(1,abc) string functor", NewCompound(NewString("f"), NewInt(1), NewString("abc")))
	add("hilog students(cs99)(7)", NewCompound(Atom("students", Intern("cs99")), NewInt(7)))
	add("nested g(h(2),1.5,'It''s')", Atom("g", Atom("h", NewInt(2)), NewFloat(1.5), NewString("It's")))
	add("0-ary z()", Atom("z"))
	add("0-ary hilog z()()", NewCompound(Atom("z")))
	return names, vals
}

// TestValueSemanticsGolden pins every observable result of the value
// operations on semanticsCorpus: per value its hash, canonical encoding,
// rendering and encoded size, and per ordered pair Compare, Equal and
// Identical. The golden was generated before the compact value layout
// and must stay byte-identical across representation changes.
func TestValueSemanticsGolden(t *testing.T) {
	names, vals := semanticsCorpus()
	var b strings.Builder
	for i, v := range vals {
		enc, size := "panic", "panic"
		func() {
			defer func() { recover() }()
			enc = fmt.Sprintf("%x", AppendValue(nil, v))
			size = fmt.Sprint(Tuple{v}.EncodedSize())
		}()
		fmt.Fprintf(&b, "v%02d %s: kind=%v interned=%t hash=%016x enc=%s size=%s str=%s\n",
			i, names[i], v.Kind(), v.Interned(), v.Hash(), enc, size, v.String())
	}
	for i, v := range vals {
		for j, w := range vals {
			fmt.Fprintf(&b, "v%02d v%02d cmp=%d eq=%t id=%t\n", i, j, v.Compare(w), v.Equal(w), v.Identical(w))
		}
	}
	path := filepath.Join("testdata", "value_semantics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if gl[k] != wl[k] {
				t.Fatalf("value semantics changed at line %d:\n got %s\nwant %s", k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("value semantics changed: %d lines, want %d", len(gl), len(wl))
	}
}
