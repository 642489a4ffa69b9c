package gluenail

import (
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// TestExamples builds and runs every example program, checking key lines of
// their output. This keeps the examples honest as the engine evolves.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run; skipped with -short")
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{
			"tc(1, X) via NAIL! rules:",
			"X = 5",
			"4 reaches 5",
			"EDB saved to quickstart.edb",
		}},
		{"cad", []string{
			"[screen] highlighting circle3",
			"This one?",
			"[screen] dehighlighting circle3",
			"selected element: line17",
		}},
		{"registrar", []string{
			"cs99: instructor=smith room=mjh460a ta_set=tas(cs99) student_set=students(cs99)",
			"green",
			"jones assists cs99",
			"students(cs99) == students(cs245) extensionally: false",
			"students(cs99) == students(cs99) extensionally: true",
		}},
		{"flights", []string{
			"destinations reachable from sfo: 5",
			"qf: 7417 miles",
			"cdg: 4 hops",
		}},
		{"warehouse", []string{
			"shipped orders:",
			"[4]",
			"rejected orders:",
			"widget: 0 left",
			"widget stock after reload: 0",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			text := string(out)
			for _, want := range c.want {
				if !strings.Contains(text, want) {
					t.Errorf("example %s output missing %q:\n%s", c.dir, want, text)
				}
			}
		})
	}
}

// TestExamplesParallelDeterminism runs every example twice at once and
// requires byte-identical output: nothing a program prints may depend on
// scheduling, map iteration order, or what else the machine is running.
func TestExamplesParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run; skipped with -short")
	}
	dirs := []string{"quickstart", "cad", "registrar", "flights", "warehouse"}
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			var out [2][]byte
			var errs [2]error
			var wg sync.WaitGroup
			for i := range out {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[i], errs[i] = exec.Command("go", "run", "./examples/"+dir).CombinedOutput()
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("example %s (run %d) failed: %v\n%s", dir, i, err, out[i])
				}
			}
			if string(out[0]) != string(out[1]) {
				t.Errorf("example %s output differs between two concurrent runs:\n--- run 0 ---\n%s--- run 1 ---\n%s",
					dir, out[0], out[1])
			}
		})
	}
}
