package vm

import (
	"testing"

	"gluenail/internal/term"
)

// TestDedupKeyUnboundSentinel is the regression test for the dedup-key
// encoding of unbound registers: an unbound slot must produce a key
// distinct from every bound value, and shifting which register is unbound
// must change the key.
func TestDedupKeyUnboundSentinel(t *testing.T) {
	live := []int{0, 1}
	key := func(a, b term.Value) string {
		return string(appendDedupKey(nil, []term.Value{a, b}, live))
	}
	unbound := term.Value{}
	one := term.NewInt(1)
	if key(unbound, one) == key(one, unbound) {
		t.Error("swapping the unbound register did not change the dedup key")
	}
	if key(unbound, one) == key(one, one) {
		t.Error("unbound register aliased a bound value in the dedup key")
	}
	if key(unbound, unbound) != key(unbound, unbound) {
		t.Error("dedup key is not deterministic")
	}
}
