package gluenail

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Golden-file program tests: each testdata/programs/*.glue file is a
// complete program whose header comments drive the runner:
//
//	% QUERY: goals...      evaluate and print the sorted answers
//	% CALL: module.proc    call a 0-bound procedure, print its results
//
// Output (including anything the program writes) is compared against the
// .out golden file; regenerate with `go test -run TestGoldenPrograms
// -update`.
var update = flag.Bool("update", false, "rewrite golden .out files")

func TestGoldenPrograms(t *testing.T) {
	files, err := filepath.Glob("testdata/programs/*.glue")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden programs found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			got := runGolden(t, file)
			goldenPath := strings.TrimSuffix(file, ".glue") + ".out"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output mismatch for %s:\n--- got ---\n%s--- want ---\n%s",
					file, got, want)
			}
		})
	}
}

// TestGoldenProgramsParallel runs every golden program on four systems
// at once, one goroutine each. Concurrent systems share only process-wide
// state — the atom interner and the batch kernels' scratch pool — and
// nothing may leak between them: every copy must print the golden bytes.
func TestGoldenProgramsParallel(t *testing.T) {
	files, err := filepath.Glob("testdata/programs/*.glue")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			want, err := os.ReadFile(strings.TrimSuffix(file, ".glue") + ".out")
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			got := make([]string, 4)
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = goldenOutput(file)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != string(want) {
					t.Errorf("concurrent copy %d diverged from golden output for %s:\n--- got ---\n%s--- want ---\n%s",
						i, file, got[i], want)
				}
			}
		})
	}
}

func runGolden(t *testing.T, file string) string {
	t.Helper()
	out, err := goldenOutput(file)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenOutput loads a golden program on a fresh system and runs the
// entry points its header comments name, returning everything printed.
func goldenOutput(file string) (string, error) {
	var out bytes.Buffer
	err := goldenRun(New(WithOutput(&out)), file, &out)
	return out.String(), err
}

// goldenRun loads a golden program into sys and runs its entry points,
// printing to out.
func goldenRun(sys *System, file string, out *bytes.Buffer) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if err := sys.Load(string(src)); err != nil {
		return fmt.Errorf("%s: %v", file, err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "% QUERY:"):
			q := strings.TrimSpace(strings.TrimPrefix(line, "% QUERY:"))
			fmt.Fprintf(out, "?- %s\n", q)
			res, err := sys.Query(q)
			if err != nil {
				return fmt.Errorf("%s: query %q: %v", file, q, err)
			}
			if len(res.Vars) == 0 {
				fmt.Fprintln(out, len(res.Rows) > 0)
				continue
			}
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = fmt.Sprintf("%s=%v", res.Vars[i], v)
				}
				fmt.Fprintf(out, "  %s\n", strings.Join(parts, " "))
			}
		case strings.HasPrefix(line, "% CALL:"):
			spec := strings.TrimSpace(strings.TrimPrefix(line, "% CALL:"))
			mod, proc, ok := strings.Cut(spec, ".")
			if !ok {
				mod, proc = "main", spec
			}
			fmt.Fprintf(out, "call %s\n", spec)
			rows, err := sys.Call(mod, proc)
			if err != nil {
				return fmt.Errorf("%s: call %q: %v", file, spec, err)
			}
			for _, row := range rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Fprintf(out, "  %s\n", strings.Join(parts, " "))
			}
		}
	}
	return nil
}
