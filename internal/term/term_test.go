package term

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Invalid: "invalid", Int: "int", Float: "float",
		Str: "string", Compound: "compound", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	i := NewInt(-42)
	if i.Kind() != Int || i.Int() != -42 {
		t.Errorf("NewInt: got kind %v value %d", i.Kind(), i.Int())
	}
	f := NewFloat(2.5)
	if f.Kind() != Float || f.Float() != 2.5 {
		t.Errorf("NewFloat: got kind %v value %g", f.Kind(), f.Float())
	}
	s := NewString("hello world")
	if s.Kind() != Str || s.Str() != "hello world" {
		t.Errorf("NewString: got kind %v value %q", s.Kind(), s.Str())
	}
	c := Atom("f", NewInt(1), NewString("x"))
	if c.Kind() != Compound || c.NumArgs() != 2 {
		t.Fatalf("Atom: got kind %v arity %d", c.Kind(), c.NumArgs())
	}
	if !c.Functor().Equal(NewString("f")) {
		t.Errorf("Functor = %v, want f", c.Functor())
	}
	if !c.Arg(0).Equal(NewInt(1)) || !c.Arg(1).Equal(NewString("x")) {
		t.Errorf("Args = %v,%v", c.Arg(0), c.Arg(1))
	}
	if len(c.Args()) != 2 {
		t.Errorf("Args() len = %d", len(c.Args()))
	}
	if i.Args() != nil || i.NumArgs() != 0 {
		t.Errorf("non-compound Args should be empty")
	}
}

func TestHiLogFunctor(t *testing.T) {
	// students(cs99)(wilson): the functor is itself a compound term (§5).
	inner := Atom("students", NewString("cs99"))
	v := NewCompound(inner, NewString("wilson"))
	if !v.Functor().Equal(inner) {
		t.Errorf("HiLog functor = %v, want %v", v.Functor(), inner)
	}
	if got := v.String(); got != "students(cs99)(wilson)" {
		t.Errorf("String = %q", got)
	}
}

func TestIsZero(t *testing.T) {
	var z Value
	if !z.IsZero() {
		t.Error("zero Value should be IsZero")
	}
	if NewInt(0).IsZero() {
		t.Error("NewInt(0) should not be IsZero")
	}
}

func TestNum(t *testing.T) {
	if f, ok := NewInt(3).Num(); !ok || f != 3 {
		t.Errorf("Num(3) = %g,%v", f, ok)
	}
	if f, ok := NewFloat(1.5).Num(); !ok || f != 1.5 {
		t.Errorf("Num(1.5) = %g,%v", f, ok)
	}
	if _, ok := NewString("x").Num(); ok {
		t.Error("string should not be numeric")
	}
}

func TestAccessorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("Int on Str", func() { NewString("x").Int() })
	expectPanic("Float on Int", func() { NewInt(1).Float() })
	expectPanic("Str on Int", func() { NewInt(1).Str() })
	expectPanic("Functor on Int", func() { NewInt(1).Functor() })
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1), false}, // ints and floats are distinct
		{NewFloat(1.5), NewFloat(1.5), true},
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{Atom("f", NewInt(1)), Atom("f", NewInt(1)), true},
		{Atom("f", NewInt(1)), Atom("g", NewInt(1)), false},
		{Atom("f", NewInt(1)), Atom("f", NewInt(2)), false},
		{Atom("f", NewInt(1)), Atom("f", NewInt(1), NewInt(2)), false},
		{Value{}, Value{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestCompareOrder(t *testing.T) {
	// Ascending chain across and within kinds.
	chain := []Value{
		NewInt(-5), NewInt(0), NewInt(7),
		NewFloat(-1.5), NewFloat(3.25),
		NewString(""), NewString("abc"), NewString("abd"),
		Atom("f"), Atom("a", NewInt(1)), Atom("a", NewInt(2)),
		Atom("b", NewInt(1)),
		Atom("a", NewInt(1), NewInt(1)),
	}
	for i := range chain {
		for j := range chain {
			got := chain[i].Compare(chain[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", chain[i], chain[j], got, want)
			}
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewFloat(2), "2.0"},
		{NewString("abc"), "abc"},
		{NewString("ab_c9"), "ab_c9"},
		{NewString("Abc"), "'Abc'"},
		{NewString("hello world"), "'hello world'"},
		{NewString(""), "''"},
		{NewString("it's"), `'it\'s'`},
		{Atom("f", NewInt(1), NewString("x")), "f(1,x)"},
		{Value{}, "<unbound>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// randomValue builds a random ground value of bounded depth.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(4)
	if depth <= 0 && k == 3 {
		k = r.Intn(3)
	}
	switch k {
	case 0:
		return NewInt(int64(r.Intn(21) - 10))
	case 1:
		return NewFloat(float64(r.Intn(9)) / 2)
	case 2:
		letters := []string{"a", "bc", "def", "Xy", "hello world", ""}
		return NewString(letters[r.Intn(len(letters))])
	default:
		n := r.Intn(3)
		args := make([]Value, n)
		for i := range args {
			args[i] = randomValue(r, depth-1)
		}
		fn := randomValue(r, 0)
		return NewCompound(fn, args...)
	}
}

// Generate implements quick.Generator so Values can be used directly in
// property-based tests.
func (Value) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randomValue(r, 3))
}

func TestQuickHashEqualConsistent(t *testing.T) {
	// Property: Equal values have equal hashes, and Equal agrees with
	// Compare==0.
	f := func(a, b Value) bool {
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return a.Equal(b) == (a.Compare(b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelfEquality(t *testing.T) {
	f := func(a Value) bool {
		return a.Equal(a) && a.Compare(a) == 0 && a.Hash() == a.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(a, b, c Value) bool {
		// Order the three values and check the chain is consistent.
		vs := []Value{a, b, c}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if vs[i].Compare(vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 &&
			vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashDistribution(t *testing.T) {
	// Sanity: hashes of distinct small ints should not all collide.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[NewInt(int64(i)).Hash()] = true
	}
	if len(seen) < 990 {
		t.Errorf("excessive hash collisions: %d distinct hashes of 1000", len(seen))
	}
}

// TestValueLayout pins the compact representation: a Value is 24 bytes
// (a kind tag, one 8-byte payload and one pointer word), and it stays
// incomparable, so == on values and values as map keys remain compile
// errors rather than silently comparing pointer words.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare representation words")
	}
}
