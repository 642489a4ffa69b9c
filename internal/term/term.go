// Package term implements the Glue-Nail data model: ground values
// (integers, floats, strings, and HiLog compound terms), tuples of ground
// values, and one-way pattern matching.
//
// Following the paper (§2), relations may contain only completely ground
// tuples, so the package provides matching rather than full unification:
// a pattern containing variables is matched against a ground value, binding
// variables as it goes. Atoms and strings are the same type (§2: "In Glue
// there is no difference between atoms and strings").
//
// HiLog support (§5): a compound term's functor is itself an arbitrary
// term, not just an atom, so predicate names like students(cs99) are
// ordinary values and can be stored in tuples as set-valued attributes.
package term

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the representation of a Value. The zero Kind is Invalid
// so that the zero Value is usable as an "unbound" marker in register files.
type Kind uint8

const (
	// Invalid is the kind of the zero Value; it never appears in relations.
	Invalid Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
	// Str is an atom or string; Glue does not distinguish the two.
	Str
	// Compound is a HiLog compound term: functor term applied to arguments.
	Compound
)

// String returns the kind name for diagnostics.
func (k Kind) String() string {
	switch k {
	case Invalid:
		return "invalid"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Compound:
		return "compound"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an immutable ground term. Values are small (24 bytes) and
// intended to be passed by value; compound structure is shared.
//
// Ints and float bits live inline in n. p is the value's one pointer word,
// and kind and intern alone say what it points at (DESIGN §5.29):
//   - Str, intern set: the *internEntry, whose string is n bytes long;
//   - Str, intern clear: the string's n bytes (unread when n is 0);
//   - Compound: the immutable *compound node;
//   - Int, Float, Invalid: nil.
//
// Only term.go, intern.go, encode.go and pattern.go touch the fields, and
// they read p through str, entry and comp.
type Value struct {
	_      [0]func() // keeps Value incomparable: == and map keys stay compile errors
	kind   Kind
	intern bool
	n      uint64
	p      unsafe.Pointer
}

// compound is a Compound value's node: its functor term and arguments.
type compound struct {
	fn   Value
	args []Value
}

// str returns a Str value's string.
func (v Value) str() string {
	if v.intern {
		return v.entry().s
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// entry returns an interned Str value's interner entry.
func (v Value) entry() *internEntry { return (*internEntry)(v.p) }

// comp returns a Compound value's node.
func (v Value) comp() *compound { return (*compound)(v.p) }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: Int, n: uint64(i)} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{kind: Float, n: math.Float64bits(f)} }

// NewString returns an atom/string value. It is not interned: it points at
// s's own bytes, so transient strings never grow the intern table.
func NewString(s string) Value {
	return Value{kind: Str, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewCompound returns a compound term with the given functor term and
// arguments. The functor may be any ground term (HiLog); the argument slice
// is not copied and must not be mutated afterwards.
func NewCompound(functor Value, args ...Value) Value {
	return Value{kind: Compound, p: unsafe.Pointer(&compound{fn: functor, args: args})}
}

// Atom is shorthand for NewCompound(Intern(name), args...), the common
// first-order case. The functor is interned: atom functors name relations
// and HiLog dispatch targets, so they are compared and hashed constantly.
func Atom(name string, args ...Value) Value {
	return NewCompound(Intern(name), args...)
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether v is the zero (unbound/invalid) Value.
func (v Value) IsZero() bool { return v.kind == Invalid }

// Int returns the integer payload; it panics if the kind is not Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("term: Int() on " + v.kind.String())
	}
	return int64(v.n)
}

// Float returns the float payload; it panics if the kind is not Float.
func (v Value) Float() float64 {
	if v.kind != Float {
		panic("term: Float() on " + v.kind.String())
	}
	return math.Float64frombits(v.n)
}

// Num returns the value as a float64 for arithmetic; ok is false when the
// value is not numeric.
func (v Value) Num() (f float64, ok bool) {
	switch v.kind {
	case Int:
		return float64(int64(v.n)), true
	case Float:
		return math.Float64frombits(v.n), true
	}
	return 0, false
}

// Str returns the string payload; it panics if the kind is not Str.
func (v Value) Str() string {
	if v.kind != Str {
		panic("term: Str() on " + v.kind.String())
	}
	return v.str()
}

// Functor returns the functor term of a compound value; it panics for
// non-compound values.
func (v Value) Functor() Value {
	if v.kind != Compound {
		panic("term: Functor() on " + v.kind.String())
	}
	return v.comp().fn
}

// NumArgs returns the number of arguments of a compound value and 0 for
// all other kinds.
func (v Value) NumArgs() int {
	if v.kind != Compound {
		return 0
	}
	return len(v.comp().args)
}

// Arg returns the i'th argument of a compound value; it panics for
// non-compound values.
func (v Value) Arg(i int) Value {
	if v.kind != Compound {
		panic("term: Arg() on " + v.kind.String())
	}
	return v.comp().args[i]
}

// Args returns the argument slice of a compound value; the caller must not
// mutate it.
func (v Value) Args() []Value {
	if v.kind != Compound {
		return nil
	}
	return v.comp().args
}

// Equal reports structural equality. Int and Float values are distinct even
// when numerically equal (1 != 1.0), mirroring matching on stored ground
// tuples.
func (v Value) Equal(w Value) bool { return v.equal(w, false) }

// Identical reports whether v and w have the same canonical encoding
// (AppendValue): Equal, except that floats compare by bit pattern, so a
// NaN is identical to itself and -0.0 differs from 0.0. Hash agrees with
// it: identical values hash equal. Storage catalogs key relations by it.
func (v Value) Identical(w Value) bool { return v.equal(w, true) }

// equal is Equal, or Identical when bits is set.
func (v Value) equal(w Value, bits bool) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Invalid:
		return true
	case Int:
		return v.n == w.n
	case Float:
		if bits {
			return v.n == w.n
		}
		return math.Float64frombits(v.n) == math.Float64frombits(w.n)
	case Str:
		// Two interned strings are equal iff they share the interner entry
		// (one entry per distinct string); mixed or non-interned pairs fall
		// back to byte comparison.
		if v.intern && w.intern {
			return v.p == w.p
		}
		return v.str() == w.str()
	case Compound:
		c, d := v.comp(), w.comp()
		if len(c.args) != len(d.args) || !c.fn.equal(d.fn, bits) {
			return false
		}
		for i := range c.args {
			if !c.args[i].equal(d.args[i], bits) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare imposes a total order over ground values: by kind
// (Int < Float < Str < Compound), then by payload; compounds order by
// arity, then functor, then arguments left to right.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case Int:
		return cmp.Compare(int64(v.n), int64(w.n))
	case Float:
		switch a, b := math.Float64frombits(v.n), math.Float64frombits(w.n); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case Str:
		return strings.Compare(v.str(), w.str())
	case Compound:
		c, d := v.comp(), w.comp()
		if n := len(c.args) - len(d.args); n != 0 {
			if n < 0 {
				return -1
			}
			return 1
		}
		if r := c.fn.Compare(d.fn); r != 0 {
			return r
		}
		for i := range c.args {
			if r := c.args[i].Compare(d.args[i]); r != 0 {
				return r
			}
		}
		return 0
	}
	return 0
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// strHash returns the 64-bit content hash of a Str value: the interner's
// precomputed hash when available, the same FNV-1a fold computed on the
// spot otherwise — so interned and non-interned copies of one string
// always hash identically.
func (v Value) strHash() uint64 {
	if v.intern {
		return v.entry().h
	}
	return hashString(fnvOffset, v.str())
}

// StrHash exposes the string content hash for persistence: the disk
// engine's intern table stores it next to each atom so InternWithHash can
// rebuild entries on reopen without re-folding the bytes. Panics on
// non-Str values.
func (v Value) StrHash() uint64 {
	if v.kind != Str {
		panic("term: StrHash() on " + v.kind.String())
	}
	return v.strHash()
}

func (v Value) hashInto(h uint64) uint64 {
	h = hashUint64(h, uint64(v.kind))
	switch v.kind {
	case Int, Float:
		h = hashUint64(h, v.n)
	case Str:
		// Fold the string's own 64-bit content hash rather than its bytes:
		// the content hash is position-independent, so the interner can
		// precompute it once per distinct string.
		h = hashUint64(h, v.strHash())
	case Compound:
		c := v.comp()
		h = c.fn.hashInto(h)
		h = hashUint64(h, uint64(len(c.args)))
		for i := range c.args {
			h = c.args[i].hashInto(h)
		}
	}
	return h
}

// Hash returns a 64-bit FNV-1a hash of the value; equal values hash equal.
func (v Value) Hash() uint64 { return v.hashInto(fnvOffset) }

// HashSeed is the initial accumulator for incremental hashing with
// HashInto; Hash() is HashInto(HashSeed).
const HashSeed uint64 = fnvOffset

// HashInto folds v into a running 64-bit hash, for callers (the VM's
// dedup/group kernels) that hash several live registers without building a
// tuple. Unbound (Invalid) values fold their kind tag, so an unbound
// register hashes differently from every ground value.
func (v Value) HashInto(h uint64) uint64 { return v.hashInto(h) }

// needsQuote reports whether an atom requires single quotes when printed.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return true
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			return true
		}
	}
	return false
}

func (v Value) appendTo(sb *strings.Builder) {
	switch v.kind {
	case Invalid:
		sb.WriteString("<unbound>")
	case Int:
		sb.WriteString(strconv.FormatInt(int64(v.n), 10))
	case Float:
		s := strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
		sb.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			sb.WriteString(".0")
		}
	case Str:
		if s := v.str(); needsQuote(s) {
			sb.WriteByte('\'')
			for _, r := range s {
				if r == '\'' || r == '\\' {
					sb.WriteByte('\\')
				}
				sb.WriteRune(r)
			}
			sb.WriteByte('\'')
		} else {
			sb.WriteString(s)
		}
	case Compound:
		c := v.comp()
		c.fn.appendTo(sb)
		sb.WriteByte('(')
		for i, a := range c.args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.appendTo(sb)
		}
		sb.WriteByte(')')
	}
}

// String renders the value in Glue source syntax; atoms that need quoting
// are single-quoted.
func (v Value) String() string {
	var sb strings.Builder
	v.appendTo(&sb)
	return sb.String()
}
