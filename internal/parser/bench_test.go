package parser

import (
	"runtime"
	"testing"
)

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

const benchSrc = `
module sample;
export reach(X:Y);
edb edge(A,B), weight(A,B,W);
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y) & edge(Y,Z).
heavy(X,Y) :- weight(X,Y,W) & W > 100.
proc scan(X:Y)
rels seen(A);
  seen(Y) := in(X) & edge(X,Y).
  repeat
    seen(Z) += seen(Y) & edge(Y,Z) & Z != X.
  until unchanged(seen(_));
  return(X:Y) := seen(Y).
end
end
`

func BenchmarkParseModule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseGoals(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseGoals("reach(X,Y) & weight(X,Y,W) & W > 10 & M = max(W)"); err != nil {
			b.Fatal(err)
		}
	}
}

// bytesPerRun is the mean number of heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestParseAllocs pins the parser's allocations: a module parse, and the
// bytes of a one-atom query, measured 512 (Go 1.24, linux/amd64) plus 25%;
// 672 with 80-byte values, 1392 (18 objects) with the token slice the
// parser used to build.
func TestParseAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	const maxModuleAllocs = 146.0 // measured 117 (Go 1.24, linux/amd64), plus 25%; 240 with a token slice
	const maxQueryBytes = 640
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(benchSrc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(benchSrc): %.0f allocs", allocs)
	if allocs > maxModuleAllocs {
		t.Errorf("Parse(benchSrc) allocates %.0f objects, want <= %.0f", allocs, maxModuleAllocs)
	}
	bytes := bytesPerRun(1000, func() {
		if _, err := ParseGoals("tc(1, X)"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseGoals(tc(1, X)): %d bytes", bytes)
	if bytes > maxQueryBytes {
		t.Errorf("ParseGoals of a one-atom query allocates %d bytes, want <= %d", bytes, maxQueryBytes)
	}
}
