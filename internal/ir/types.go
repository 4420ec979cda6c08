// Package ir defines a typed, SSA-based intermediate representation for
// MiniC programs, together with the analyses (dominators, natural loops)
// and structural utilities (cloning, rewriting, verification) that the
// optimization passes in internal/passes operate on.
//
// The IR deliberately mirrors a small subset of LLVM IR: a Module holds
// Functions and Globals; a Function is a list of Blocks; a Block is a list
// of Instrs ending in a terminator. Values are integers of explicit bit
// width (i1, i8, i32, i64) or pointers. Memory is object-based: an Alloca
// or Global names an object, and GEP computes element addresses within it.
package ir

import (
	"fmt"
	"strconv"
)

// Type is the interface implemented by all IR types.
type Type interface {
	// String returns the LLVM-like spelling of the type (e.g. "i32").
	String() string
	// Size returns the size of the type in bytes. Void has size 0.
	Size() int64
	isType()
}

// IntType is an integer type of a fixed bit width (1, 8, 16, 32 or 64).
type IntType struct {
	Bits int
}

func (t IntType) String() string { return "i" + strconv.Itoa(t.Bits) }

// Size returns the storage size in bytes; i1 occupies one byte.
func (t IntType) Size() int64 {
	if t.Bits <= 8 {
		return 1
	}
	return int64(t.Bits / 8)
}
func (IntType) isType() {}

// Convenient singletons for the integer types MiniC uses.
var (
	I1  = IntType{Bits: 1}
	I8  = IntType{Bits: 8}
	I16 = IntType{Bits: 16}
	I32 = IntType{Bits: 32}
	I64 = IntType{Bits: 64}
)

// PtrType is a pointer to values of an element type.
type PtrType struct {
	Elem Type
}

func (t PtrType) String() string { return t.Elem.String() + "*" }

// Size returns the size of a pointer; the IR models pointers as 64-bit.
func (t PtrType) Size() int64 { return 8 }
func (PtrType) isType()       {}

// PtrTo returns the pointer type with element type elem.
func PtrTo(elem Type) PtrType { return PtrType{Elem: elem} }

// ArrayType is a fixed-length array. It appears only as the allocated type
// of an Alloca or Global; array values are never first-class.
type ArrayType struct {
	Elem Type
	Len  int64
}

func (t ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem.String())
}

// Size returns the total array size in bytes.
func (t ArrayType) Size() int64 { return t.Len * t.Elem.Size() }
func (ArrayType) isType()       {}

// VoidType is the type of functions that return nothing.
type VoidType struct{}

func (VoidType) String() string { return "void" }

// Size of void is zero.
func (VoidType) Size() int64 { return 0 }
func (VoidType) isType()     {}

// Void is the singleton void type.
var Void = VoidType{}

// FuncType describes a function signature.
type FuncType struct {
	Ret    Type
	Params []Type
}

func (t FuncType) String() string {
	s := t.Ret.String() + " ("
	for i, p := range t.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + ")"
}

// Size of a function type is not meaningful; it returns 0.
func (t FuncType) Size() int64 { return 0 }
func (FuncType) isType()       {}

// IsPtr reports whether t is a pointer type, returning it if so.
func IsPtr(t Type) (PtrType, bool) {
	pt, ok := t.(PtrType)
	return pt, ok
}

// SameType reports whether two types are structurally identical.
func SameType(a, b Type) bool {
	switch at := a.(type) {
	case IntType:
		bt, ok := b.(IntType)
		return ok && at.Bits == bt.Bits
	case PtrType:
		bt, ok := b.(PtrType)
		return ok && SameType(at.Elem, bt.Elem)
	case ArrayType:
		bt, ok := b.(ArrayType)
		return ok && at.Len == bt.Len && SameType(at.Elem, bt.Elem)
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case FuncType:
		bt, ok := b.(FuncType)
		if !ok || !SameType(at.Ret, bt.Ret) || len(at.Params) != len(bt.Params) {
			return false
		}
		for i := range at.Params {
			if !SameType(at.Params[i], bt.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Mask truncates v to the given bit width, treating it as unsigned.
func Mask(bits int, v uint64) uint64 {
	if bits >= 64 {
		return v
	}
	return v & ((1 << uint(bits)) - 1)
}

// SignExtend interprets the low bits of v as a signed integer of the given
// width and returns its value sign-extended to int64.
func SignExtend(bits int, v uint64) int64 {
	if bits >= 64 {
		return int64(v)
	}
	v = Mask(bits, v)
	sign := uint64(1) << uint(bits-1)
	if v&sign != 0 {
		return int64(v | ^(sign<<1 - 1))
	}
	return int64(v)
}
