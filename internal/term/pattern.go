package term

import (
	"fmt"
	"strings"
)

// PatKind identifies the shape of a Pattern node.
type PatKind uint8

const (
	// PatGround matches a fixed ground value.
	PatGround PatKind = iota
	// PatVar matches anything, binding (or comparing against) a register.
	PatVar
	// PatWild matches anything and binds nothing ("_").
	PatWild
	// PatComp matches a compound value structurally; the functor itself is
	// a sub-pattern (HiLog), so students(ID) can appear as a pattern functor.
	PatComp
)

// Pattern is a term that may contain register-indexed variables. Patterns
// are the compiled form of source-level terms: the compiler allocates one
// register per distinct statement variable.
type Pattern struct {
	Kind PatKind
	Val  Value     // PatGround
	Reg  int       // PatVar: register index
	Fn   *Pattern  // PatComp
	Args []Pattern // PatComp
}

// Ground returns a pattern matching exactly v.
func Ground(v Value) Pattern { return Pattern{Kind: PatGround, Val: v} }

// Var returns a pattern binding register reg.
func Var(reg int) Pattern { return Pattern{Kind: PatVar, Reg: reg} }

// Wild returns the anonymous-variable pattern.
func Wild() Pattern { return Pattern{Kind: PatWild} }

// Comp returns a compound pattern with the given functor and argument
// patterns.
func Comp(fn Pattern, args ...Pattern) Pattern {
	f := fn
	return Pattern{Kind: PatComp, Fn: &f, Args: args}
}

// CompAtom returns a compound pattern with a fixed atom functor.
func CompAtom(name string, args ...Pattern) Pattern {
	return Comp(Ground(NewString(name)), args...)
}

// Match matches p against ground value v. Registers already bound (non-zero
// in regs) are compared; unbound registers are bound on success. On failure
// regs may be left partially extended; callers must restore any registers
// they care about (the executor trails bindings per tuple).
func (p Pattern) Match(v Value, regs []Value) bool {
	switch p.Kind {
	case PatGround:
		return p.Val.Equal(v)
	case PatWild:
		return true
	case PatVar:
		if regs[p.Reg].IsZero() {
			regs[p.Reg] = v
			return true
		}
		return regs[p.Reg].Equal(v)
	case PatComp:
		if v.kind != Compound {
			return false
		}
		c := v.comp()
		if len(c.args) != len(p.Args) || !p.Fn.Match(c.fn, regs) {
			return false
		}
		for i := range p.Args {
			if !p.Args[i].Match(c.args[i], regs) {
				return false
			}
		}
		return true
	}
	return false
}

// Build constructs the ground value denoted by p under the given register
// bindings. It fails if p contains an unbound register or a wildcard.
func (p Pattern) Build(regs []Value) (Value, error) {
	switch p.Kind {
	case PatGround:
		return p.Val, nil
	case PatWild:
		return Value{}, fmt.Errorf("term: cannot build value from wildcard")
	case PatVar:
		v := regs[p.Reg]
		if v.IsZero() {
			return Value{}, fmt.Errorf("term: register %d unbound", p.Reg)
		}
		return v, nil
	case PatComp:
		fn, err := p.Fn.Build(regs)
		if err != nil {
			return Value{}, err
		}
		args := make([]Value, len(p.Args))
		for i := range p.Args {
			a, err := p.Args[i].Build(regs)
			if err != nil {
				return Value{}, err
			}
			args[i] = a
		}
		return NewCompound(fn, args...), nil
	}
	return Value{}, fmt.Errorf("term: bad pattern kind %d", p.Kind)
}

// IsGround reports whether the pattern contains no variables or wildcards.
func (p Pattern) IsGround() bool {
	switch p.Kind {
	case PatGround:
		return true
	case PatVar, PatWild:
		return false
	case PatComp:
		if !p.Fn.IsGround() {
			return false
		}
		for i := range p.Args {
			if !p.Args[i].IsGround() {
				return false
			}
		}
		return true
	}
	return false
}

// Regs appends the registers mentioned by the pattern to dst, in first-use
// order, without duplicates relative to dst's existing contents.
func (p Pattern) Regs(dst []int) []int {
	switch p.Kind {
	case PatVar:
		for _, r := range dst {
			if r == p.Reg {
				return dst
			}
		}
		return append(dst, p.Reg)
	case PatComp:
		dst = p.Fn.Regs(dst)
		for i := range p.Args {
			dst = p.Args[i].Regs(dst)
		}
	}
	return dst
}

// String renders the pattern for diagnostics, showing registers as $n.
func (p Pattern) String() string {
	var sb strings.Builder
	p.appendTo(&sb)
	return sb.String()
}

func (p Pattern) appendTo(sb *strings.Builder) {
	switch p.Kind {
	case PatGround:
		p.Val.appendTo(sb)
	case PatVar:
		fmt.Fprintf(sb, "$%d", p.Reg)
	case PatWild:
		sb.WriteByte('_')
	case PatComp:
		p.Fn.appendTo(sb)
		sb.WriteByte('(')
		for i := range p.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			p.Args[i].appendTo(sb)
		}
		sb.WriteByte(')')
	}
}
