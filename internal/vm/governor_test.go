package vm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gluenail/internal/modsys"
	"gluenail/internal/parser"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// compileMachineReg is compileMachine with a caller-supplied registry, so
// tests can install hostile builtins (e.g. one that panics).
func compileMachineReg(t *testing.T, src string, reg *Registry) *Machine {
	t.Helper()
	popts := plan.Options{Builtin: reg.Sig}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lp, err := modsys.LinkWith(prog, modsys.Options{Known: reg.Has})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	c := plan.NewCompiler(lp, popts)
	if err := c.CompileAll(); err != nil {
		t.Fatalf("compile: %v", err)
	}
	edb := storage.NewMemStore(storage.IndexAdaptive)
	return New(c.Program(), edb, nil, reg)
}

// spinSrc is an infinite repeat/until program: flag(1) re-derives itself
// and the until condition never holds.
const spinSrc = `
edb flag(X);
proc spin(:)
  repeat
    flag(1) += flag(1).
  until empty(flag(_));
  return(:) := flag(_).
end
`

// spinJoinSrc is an infinite loop whose body re-derives a cross product,
// so cancellation also lands inside segments, not only between statements.
const spinJoinSrc = `
edb e(X), big(X,Y);
proc spin(:)
  repeat
    big(X,Y) := e(X) & e(Y).
  until empty(e(_));
  return(:) := e(_).
end
`

func TestSelfRecursionDepthLimit(t *testing.T) {
	// A directly self-recursive procedure must fail with ErrDepthLimit
	// instead of overflowing the goroutine stack.
	m := compileMachine(t, `
edb e(X,Y);
proc f(X:Y)
rels r(Y);
  r(Y) := in(X) & f(X, Y).
  return(X:Y) := r(Y).
end
`, plan.Options{})
	m.MaxDepth = 64
	insert(m, "e", []int64{1, 2})
	_, err := m.CallProc("main.f", []term.Tuple{{term.NewInt(1)}})
	if !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("want ErrDepthLimit, got %v", err)
	}
	var ge *GovernorError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GovernorError in chain, got %v", err)
	}
	// The machine stays usable after a budget trip: a new call runs (and
	// trips the same clean limit again — the procedure is unconditionally
	// self-recursive).
	if _, err := m.CallProc("main.f", []term.Tuple{{term.NewInt(9)}}); !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("machine unusable after depth trip: %v", err)
	}
}

func TestTimeoutStopsInfiniteLoop(t *testing.T) {
	// Acceptance: an infinite repeat/until program terminates with
	// ErrTimeout within 2x the configured deadline, also when it is one of
	// up to 8 machines spinning concurrently under the same deadline (each
	// on its own store, the way concurrent sessions run).
	const deadline = 250 * time.Millisecond
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ms := make([]*Machine, workers)
			for i := range ms {
				ms[i] = compileMachine(t, spinJoinSrc, plan.Options{})
				ms[i].LoopLimit = 0
				for j := int64(0); j < 64; j++ {
					insert(ms[i], "e", []int64{j})
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			errs := make([]error, workers)
			var wg sync.WaitGroup
			start := time.Now()
			for i, m := range ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = m.CallProcContext(ctx, "main.spin", []term.Tuple{{}})
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			for i, err := range errs {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("machine %d: want ErrTimeout, got %v", i, err)
				}
			}
			if elapsed > 2*deadline {
				t.Errorf("aborted after %v, budget was %v (2x limit exceeded)", elapsed, deadline)
			}
		})
	}
}

func TestCancelStopsExecution(t *testing.T) {
	m := compileMachine(t, spinSrc, plan.Options{})
	m.LoopLimit = 0
	insert(m, "flag", []int64{1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := m.CallProcContext(ctx, "main.spin", []term.Tuple{{}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// Governed aborts do not poison: the machine accepts new calls (which
	// here run into the loop limit, another clean governed stop).
	m.LoopLimit = 3
	if _, err := m.CallProcContext(context.Background(), "main.spin", []term.Tuple{{}}); !errors.Is(err, ErrLoopLimit) {
		t.Fatalf("machine should still run and hit the loop limit, got %v", err)
	}
}

func TestMaxTuplesBudget(t *testing.T) {
	m := compileMachine(t, `
edb e(X), big(X,Y);
proc blow(:)
  big(X,Y) := e(X) & e(Y).
  return(:) := e(_).
end
`, plan.Options{})
	m.MaxTuples = 1000
	for i := int64(0); i < 100; i++ {
		insert(m, "e", []int64{i})
	}
	_, err := m.CallProc("main.blow", []term.Tuple{{}})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
}

func TestMaxRelRowsBudget(t *testing.T) {
	m := compileMachine(t, `
edb e(X), big(X,Y);
proc blow(:)
  big(X,Y) := e(X) & e(Y).
  return(:) := e(_).
end
`, plan.Options{})
	m.MaxRelRows = 50
	for i := int64(0); i < 40; i++ {
		insert(m, "e", []int64{i})
	}
	_, err := m.CallProc("main.blow", []term.Tuple{{}})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "big") {
		t.Errorf("error should name the offending relation: %v", err)
	}
	// A local relation is named by its source name, not its temp name.
	m = compileMachine(t, `
edb e(X);
proc blow(:)
rels tmp(X,Y);
  tmp(X,Y) := e(X) & e(Y).
  return(:) := e(_).
end
`, plan.Options{})
	m.MaxRelRows = 50
	for i := int64(0); i < 40; i++ {
		insert(m, "e", []int64{i})
	}
	_, err = m.CallProc("main.blow", []term.Tuple{{}})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "relation tmp holds 1600 rows") || strings.Contains(msg, "$frame") {
		t.Errorf("error should name the local relation tmp: %v", err)
	}
}

func TestLoopLimitTypedError(t *testing.T) {
	m := compileMachine(t, spinSrc, plan.Options{})
	m.LoopLimit = 3
	insert(m, "flag", []int64{1})
	_, err := m.CallProc("main.spin", []term.Tuple{{}})
	if !errors.Is(err, ErrLoopLimit) {
		t.Fatalf("want ErrLoopLimit, got %v", err)
	}
	if !strings.Contains(err.Error(), "iterations") {
		t.Errorf("loop-limit error should mention iterations: %v", err)
	}
}

func TestPanicContainmentPoisonsMachine(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("boom", plan.BuiltinSig{Fixed: true},
		func(m *Machine, in []term.Tuple) ([]term.Tuple, error) {
			panic("kernel exploded")
		}); err != nil {
		t.Fatal(err)
	}
	m := compileMachineReg(t, `
edb e(X), out(X);
proc go(:)
  out(X) := e(X) & boom().
  return(:) := e(_).
end
`, reg)
	insert(m, "e", []int64{1})
	_, err := m.CallProc("main.go", []term.Tuple{{}})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	var ge *GovernorError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GovernorError, got %v", err)
	}
	if ge.Stmt == "" || !strings.Contains(ge.Detail, "kernel exploded") {
		t.Errorf("panic error should carry statement label and panic value: %+v", ge)
	}
	// A contained panic may have unwound mid-mutation: the machine is
	// poisoned and rejects further calls.
	if _, err := m.CallProc("main.go", []term.Tuple{{}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned on reuse, got %v", err)
	}
}

func TestGovernorOverheadCheckCount(t *testing.T) {
	// The governor's per-check cost only matters if checks stay rare
	// relative to row work: a governed run over a joinful statement should
	// poll orders of magnitude less often than it touches tuples.
	m := compileMachine(t, `
edb e(X), big(X,Y);
proc blow(:)
  big(X,Y) := e(X) & e(Y).
  return(:) := e(_).
end
`, plan.Options{})
	for i := int64(0); i < 100; i++ {
		insert(m, "e", []int64{i})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := m.CallProcContext(ctx, "main.blow", []term.Tuple{{}}); err != nil {
		t.Fatal(err)
	}
	checks := m.Stats.GovernorChecks
	if checks == 0 {
		t.Fatal("governed run recorded no governor checks")
	}
	if mat := m.Stats.TuplesMaterialized; checks > mat/4+16 {
		t.Errorf("too many governor checks: %d checks for %d materialized tuples", checks, mat)
	}
}
