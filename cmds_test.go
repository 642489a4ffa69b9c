package gluenail

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// CLI integration tests: drive the three command-line tools end to end.

const cliProgram = `
edb edge(X,Y);
edge(1,2). edge(2,3). edge(3,4).
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
proc reach(X:Y)
  return(X:Y) := tc(X,Y).
end
`

func writeTemp(t *testing.T, name, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	out := runCmd(t, "run", "./cmd/gluenail", "-q", "tc(1,X)", src)
	for _, want := range []string{"X", "2", "3", "4", "(3 answers)"} {
		if !strings.Contains(out, want) {
			t.Errorf("query output missing %q:\n%s", want, out)
		}
	}
	// Boolean query.
	out = runCmd(t, "run", "./cmd/gluenail", "-q", "tc(1,4)", src)
	if !strings.Contains(out, "true") {
		t.Errorf("ground query should print true:\n%s", out)
	}
	out = runCmd(t, "run", "./cmd/gluenail", "-q", "tc(4,1)", src)
	if !strings.Contains(out, "false") {
		t.Errorf("failing ground query should print false:\n%s", out)
	}
}

func TestCLIEDBPersistFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	edb := filepath.Join(filepath.Dir(src), "state.edb")
	// First run saves the EDB (source facts included).
	runCmd(t, "run", "./cmd/gluenail", "-edb", edb, "-q", "edge(X,Y)", src)
	if _, err := os.Stat(edb); err != nil {
		t.Fatalf("EDB image not written: %v", err)
	}
	// Second run with a fact-free source still sees the data.
	bare := writeTemp(t, "bare.glue", `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`)
	out := runCmd(t, "run", "./cmd/gluenail", "-edb", edb, "-q", "tc(1,X)", bare)
	if !strings.Contains(out, "(3 answers)") {
		t.Errorf("persisted EDB not reloaded:\n%s", out)
	}
}

func TestCLIPlanFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	out := runCmd(t, "run", "./cmd/gluenail", "-plan", "main.reach", src)
	for _, want := range []string{"proc main.reach (1:1)", "call main.tc@bf"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestCLINailc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	out := runCmd(t, "run", "./cmd/nailc", "-adorn", "bf", "tc", src)
	for _, want := range []string{"proc tc@bf(B0:F0)", "m|tc|bf", "repeat", "until empty"} {
		if !strings.Contains(out, want) {
			t.Errorf("nailc output missing %q:\n%s", want, out)
		}
	}
	// Naive mode swaps the termination test.
	out = runCmd(t, "run", "./cmd/nailc", "-naive", "tc", src)
	if !strings.Contains(out, "unchanged(") {
		t.Errorf("naive nailc should use unchanged:\n%s", out)
	}
}

func TestCLIGlbenchSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out := runCmd(t, "run", "./cmd/glbench", "-reps", "1", "-e", "E4")
	if !strings.Contains(out, "adaptive run-time index creation") {
		t.Errorf("glbench E4 output:\n%s", out)
	}
}

func TestCLIInteractiveLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	cmd := exec.Command("go", "run", "./cmd/gluenail", "-i", src)
	cmd.Stdin = strings.NewReader("tc(1,X)\nbad syntax ((\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("repl: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"?-", "(3 answers)", "error:"} {
		if !strings.Contains(text, want) {
			t.Errorf("repl output missing %q:\n%s", want, text)
		}
	}
}

func TestCLICSVFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	srcPath := writeTemp(t, "tc.glue", `
edb edge(X,Y);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
`)
	csvPath := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(csvPath, []byte("1,2\n2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.csv")
	out := runCmd(t, "run", "./cmd/gluenail",
		"-load-csv", "edge="+csvPath,
		"-save-csv", "edge/2="+outPath,
		"-q", "tc(1,X)", srcPath)
	if !strings.Contains(out, "(2 answers)") {
		t.Errorf("csv query output:\n%s", out)
	}
	saved, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(saved), "1,2") {
		t.Errorf("saved csv:\n%s", saved)
	}
}

func TestCLICall(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	// -call requires a 0-bound procedure.
	src := writeTemp(t, "main.glue", `
edb edge(X,Y);
edge(1,2).
proc dump(:)
  shown(X, Y) := edge(X, Y) & write(X, Y).
  return(:) := edge(_,_).
end
edb shown(X,Y);
`)
	out := runCmd(t, "run", "./cmd/gluenail", "-call", "main.dump", src)
	if !strings.Contains(out, "1 2") {
		t.Errorf("call output:\n%s", out)
	}
}

func TestCLIBaselineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "tc.glue", cliProgram)
	out := runCmd(t, "run", "./cmd/gluenail", "-baseline", "naive", "-q", "tc(1,X)", src)
	if !strings.Contains(out, "(3 answers)") {
		t.Errorf("naive baseline query output:\n%s", out)
	}
	bad, err := exec.Command("go", "run", "./cmd/gluenail", "-baseline", "bogus", "-q", "tc(1,X)", src).CombinedOutput()
	if err == nil || !strings.Contains(string(bad), `unknown baseline "bogus"`) || !strings.Contains(string(bad), "no-magic") {
		t.Errorf("unknown baseline: err %v, output:\n%s", err, bad)
	}
}

// TestBenchspineVets builds and vets the benchmark module, which imports
// this package through a replace directive: a change to the public API
// that breaks the benchmark fails here, not only when the benchmark runs.
func TestBenchspineVets(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchspine"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchspine: %v\n%s", err, out)
	}
}
