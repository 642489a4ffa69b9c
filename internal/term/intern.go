package term

import (
	"sync"
	"unsafe"
)

// internEntry is the canonical record for one distinct interned string.
// Every Value built by Intern for the same string points at the same
// entry, so Equal can compare entry pointers and hashInto can reuse the
// precomputed content hash instead of re-folding the bytes.
type internEntry struct {
	s string
	h uint64
}

// value returns the interned Str value for e.
func (e *internEntry) value() Value {
	return Value{kind: Str, intern: true, n: uint64(len(e.s)), p: unsafe.Pointer(e)}
}

// interned maps string -> *internEntry. A sync.Map because interning
// happens on parse, recovery, and API boundaries that may run concurrently
// with expression evaluation in other sessions; the table is read-mostly
// after warm-up, which is sync.Map's fast case.
var interned sync.Map

// Intern returns an atom/string value whose identity is shared with every
// other interned copy of s: equal interned strings carry the same entry
// pointer (O(1) Equal) and a precomputed content hash (O(1) hashing).
// Interning is idempotent and safe for concurrent use. Non-interned values
// built by NewString remain fully interoperable — they compare equal to
// and hash identically with interned copies.
func Intern(s string) Value {
	if e, ok := interned.Load(s); ok {
		return e.(*internEntry).value()
	}
	return InternWithHash(s, hashString(fnvOffset, s))
}

// InternWithHash returns the interned value for s, seeding the intern
// table with a previously computed content hash — the disk engine's
// persisted intern table stores each atom alongside its hash so reopening
// a store rebuilds interned atoms without re-folding their bytes. The
// caller is responsible for h being s's true FNV-1a content hash (the
// persisted table checksums each record); if s is already interned the
// existing entry wins and h is ignored.
func InternWithHash(s string, h uint64) Value {
	if e, ok := interned.Load(s); ok {
		return e.(*internEntry).value()
	}
	ent := &internEntry{s: s, h: h}
	if prev, loaded := interned.LoadOrStore(ent.s, ent); loaded {
		ent = prev.(*internEntry)
	}
	return ent.value()
}

// InternValue returns v with any Str content interned: Str values are
// replaced by their interned form, compound terms intern their functor and
// arguments recursively, and other kinds pass through unchanged. Used at
// load boundaries (decode, CSV) so stored atoms enter the hot paths with
// cached hashes.
func InternValue(v Value) Value {
	switch v.kind {
	case Str:
		if v.intern {
			return v
		}
		return Intern(v.str())
	case Compound:
		c := v.comp()
		fn := InternValue(c.fn)
		args := make([]Value, len(c.args))
		for i := range c.args {
			args[i] = InternValue(c.args[i])
		}
		return NewCompound(fn, args...)
	}
	return v
}

// Interned reports whether v is an interned Str value (used by tests).
func (v Value) Interned() bool { return v.intern }
