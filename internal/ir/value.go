package ir

import (
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, globals, and the results of instructions.
type Value interface {
	// Type returns the type of the value.
	Type() Type
	// Ref returns the operand spelling used when the value is referenced,
	// e.g. "%x", "@str0" or "i32 7" without the type.
	Ref() string
}

// Const is an integer constant of a fixed width. Constants are immutable;
// Val is always stored masked to the type's bit width.
type Const struct {
	Typ IntType
	Val uint64
}

// ConstInt returns an integer constant of type t holding v masked to the
// type's width.
func ConstInt(t IntType, v uint64) *Const {
	return &Const{Typ: t, Val: Mask(t.Bits, v)}
}

// Bool returns the i1 constant for b.
func Bool(b bool) *Const {
	if b {
		return ConstInt(I1, 1)
	}
	return ConstInt(I1, 0)
}

// Type returns the constant's integer type.
func (c *Const) Type() Type { return c.Typ }

// Ref returns the decimal spelling of the constant.
func (c *Const) Ref() string { return strconv.FormatUint(c.Val, 10) }

// IsZero reports whether the constant is zero.
func (c *Const) IsZero() bool { return c.Val == 0 }

// IsOne reports whether the constant is one.
func (c *Const) IsOne() bool { return c.Val == 1 }

// Param is a formal parameter of a function.
type Param struct {
	Nam string
	Typ Type
	Idx int // position in the parameter list
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Typ }

// Ref returns "%name".
func (p *Param) Ref() string { return "%" + p.Nam }

// Global is a module-level object: a named array of Count elements of type
// Elem, optionally initialized with Init (little-endian element values).
// As a Value, a Global is a pointer to its first element.
type Global struct {
	Name     string
	Elem     Type
	Count    int64
	Init     []uint64 // element values; nil means zero-initialized
	ReadOnly bool     // string literals and lookup tables
}

// Type returns a pointer to the global's element type.
func (g *Global) Type() Type { return PtrTo(g.Elem) }

// Ref returns "@name".
func (g *Global) Ref() string { return "@" + g.Name }

// StringGlobal builds a read-only, NUL-terminated i8 global from s.
func StringGlobal(name, s string) *Global {
	init := make([]uint64, len(s)+1)
	for i := 0; i < len(s); i++ {
		init[i] = uint64(s[i])
	}
	return &Global{Name: name, Elem: I8, Count: int64(len(s) + 1), Init: init, ReadOnly: true}
}

// Null is the null pointer constant of a given pointer type.
type Null struct {
	Typ PtrType
}

// Type returns the pointer type of the null constant.
func (n *Null) Type() Type { return n.Typ }

// Ref returns "null".
func (n *Null) Ref() string { return "null" }

// NullPtr returns a null constant of pointer-to-elem type.
func NullPtr(elem Type) *Null { return &Null{Typ: PtrTo(elem)} }
