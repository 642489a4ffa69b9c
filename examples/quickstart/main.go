// Quickstart: load a program mixing NAIL! rules and a Glue procedure,
// assert EDB facts from Go, run queries, and call a procedure.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gluenail"
)

const program = `
edb edge(X,Y);

% NAIL!: declarative transitive closure.
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).

% Glue: the same computation written procedurally (§4 of the paper),
% with per-invocation local relations and a repeat/until loop.
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & edge(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & edge(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
`

func main() {
	sys := gluenail.New(gluenail.WithOutput(os.Stdout))
	if err := sys.Load(program); err != nil {
		log.Fatal(err)
	}
	// A small graph: a cycle 1-2-3 plus a tail 3-4-5.
	err := sys.Assert("edge",
		[]any{1, 2}, []any{2, 3}, []any{3, 1}, []any{3, 4}, []any{4, 5})
	if err != nil {
		log.Fatal(err)
	}

	// Declarative query (compiled with magic sets because the first
	// argument is bound).
	res, err := sys.Query("tc(1, X)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tc(1, X) via NAIL! rules:")
	for _, row := range res.Rows {
		fmt.Printf("  X = %v\n", row[0])
	}

	// The same result through the hand-written Glue procedure, called
	// set-at-a-time on two inputs at once.
	rows, err := sys.Call("main", "tc_e", []any{1}, []any{4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tc_e called on {1, 4}:")
	for _, row := range rows {
		fmt.Printf("  %v reaches %v\n", row[0], row[1])
	}

	// EDB persistence (§10: relations stored on disk between runs).
	// The file goes in a private directory, so concurrent runs of this
	// example never share it.
	dir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "quickstart.edb")
	if err := sys.SaveEDB(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EDB saved to %s\n", filepath.Base(path))
}
