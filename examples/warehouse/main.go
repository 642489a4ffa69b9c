// An update-heavy warehouse application: order processing with the modify
// assignment (+=[key], the paper's "update by key ... analogous to UPDATE
// in SQL"), in-body updates, a repeat loop draining a queue in priority
// order, and EDB persistence between runs.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gluenail"
)

const warehouse = `
edb stock(Item, Qty), order(Id, Item, Qty), shipped(Id), rejected(Id);

proc process(:)
rels pending(Id, Item, Qty), current(Id, Item, Qty);
  pending(Id, Item, Q) := order(Id, Item, Q).
  repeat
    % Take the lowest order id (FIFO).
    current(Id, Item, Q) := pending(Id, Item, Q) & Id = min(Id).
    % Fill it if the stock suffices.
    filled(Id, Item, Q, R) :=
      current(Id, Item, Q) &
      stock(Item, S) & Q <= S & R = S - Q &
      ++shipped(Id) &
      --pending(Id, Item, Q).
    % Update the stock level by key.
    stock(Item, R) +=[Item] filled(_, Item, _, R).
    % Otherwise (still pending) reject it.
    bounced(Id, Item, Q) :=
      current(Id, Item, Q) & pending(Id, Item, Q) &
      ++rejected(Id) &
      --pending(Id, Item, Q).
  until empty(pending(_,_,_));
  return(:) := order(_,_,_).
end

edb filled(Id, Item, Q, R), bounced(Id, Item, Q);

low_stock(Item, Qty) :- stock(Item, Qty) & Qty < 3.
`

func main() {
	sys := gluenail.New(gluenail.WithOutput(os.Stdout))
	if err := sys.Load(warehouse); err != nil {
		log.Fatal(err)
	}
	must(sys.Assert("stock",
		[]any{"widget", 10}, []any{"gadget", 2}, []any{"sprocket", 5}))
	must(sys.Assert("order",
		[]any{1, "widget", 4},
		[]any{2, "gadget", 5}, // more than in stock: rejected
		[]any{3, "widget", 6},
		[]any{4, "sprocket", 5},
		[]any{5, "widget", 1}, // stock exhausted by order 3: rejected
	))
	if _, err := sys.Call("main", "process"); err != nil {
		log.Fatal(err)
	}

	show := func(title, rel string, arity int) {
		rows, err := sys.Relation(rel, arity)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		for _, r := range rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Printf("  %v\n", parts)
		}
	}
	show("shipped orders:", "shipped", 1)
	show("rejected orders:", "rejected", 1)
	show("remaining stock:", "stock", 2)

	res, err := sys.Query("low_stock(Item, Q)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reorder report (stock < 3):")
	for _, r := range res.Rows {
		fmt.Printf("  %v: %v left\n", r[0], r[1])
	}

	// Persist the post-run EDB, as §10 describes ("storing EDB relations
	// on disk between runs"), then prove it reloads. The file goes in a
	// private directory, so concurrent runs of this example never share it.
	dir, err := os.MkdirTemp("", "warehouse")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "warehouse.edb")
	if err := sys.SaveEDB(path); err != nil {
		log.Fatal(err)
	}
	sys2 := gluenail.New()
	must(sys2.Load(warehouse))
	must(sys2.LoadEDB(path))
	res, err = sys2.Query("stock(widget, Q)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("widget stock after reload: %v\n", res.Rows[0][0])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
