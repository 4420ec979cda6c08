package ir

import (
	"fmt"
	"strconv"
)

// Op identifies an instruction opcode.
type Op int

// Instruction opcodes. Binary and comparison operators take two integer
// operands of equal width; comparisons produce i1.
const (
	OpInvalid Op = iota

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Comparisons (result i1).
	OpEq
	OpNe
	OpULt
	OpULe
	OpUGt
	OpUGe
	OpSLt
	OpSLe
	OpSGt
	OpSGe

	// Select: args = [cond(i1), ifTrue, ifFalse].
	OpSelect

	// Width conversions.
	OpZExt
	OpSExt
	OpTrunc

	// Memory. Alloca allocates Count elements of Allocated type and yields
	// a pointer to the first. GEP: args = [base, index(i64)] and yields a
	// pointer of the same type. Load: args = [ptr]. Store: args = [val, ptr].
	OpAlloca
	OpLoad
	OpStore
	OpGEP

	// PtrDiff: args = [p, q] of the same pointer type; yields the i64
	// element distance p-q. Both must point into the same object.
	OpPtrDiff

	// Call: Callee + args.
	OpCall

	// Phi: args parallel to Incoming blocks.
	OpPhi

	// Check evaluates args[0] (i1); if false at run time, the program traps
	// with Msg. Inserted by the runtime-checks pass; treated as a verified
	// property by symbolic execution.
	OpCheck

	// Terminators.
	OpBr          // unconditional: Succs[0]
	OpCondBr      // args = [cond]; Succs = [then, else]
	OpRet         // args = [value] or empty for void
	OpUnreachable // control must not reach here
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "icmp eq", OpNe: "icmp ne",
	OpULt: "icmp ult", OpULe: "icmp ule", OpUGt: "icmp ugt", OpUGe: "icmp uge",
	OpSLt: "icmp slt", OpSLe: "icmp sle", OpSGt: "icmp sgt", OpSGe: "icmp sge",
	OpSelect: "select", OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpPtrDiff: "ptrdiff",
	OpCall:    "call", OpPhi: "phi", OpCheck: "check",
	OpBr: "br", OpCondBr: "br", OpRet: "ret", OpUnreachable: "unreachable",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinary reports whether the opcode is a two-operand arithmetic,
// bitwise or shift operation.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpAShr }

// IsCmp reports whether the opcode is an integer comparison.
func (o Op) IsCmp() bool { return o >= OpEq && o <= OpSGe }

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpBr || o == OpCondBr || o == OpRet || o == OpUnreachable
}

// IsCommutative reports whether operand order is irrelevant.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// CheckKind classifies runtime checks inserted by the checks pass.
type CheckKind int

// The runtime checks -OVERIFY can insert (§3, "Runtime checks").
const (
	CheckNone CheckKind = iota
	CheckDivByZero
	CheckBounds
	CheckShift
	CheckAssert // user-level assert() from MiniC
)

var checkNames = [...]string{"none", "div-by-zero", "bounds", "shift", "assert"}

// String returns the human-readable check kind.
func (k CheckKind) String() string {
	if int(k) < len(checkNames) {
		return checkNames[k]
	}
	return "check?"
}

// Instr is a single IR instruction. An Instr is also a Value (its result).
// Void-typed instructions (store, br, ...) must not be used as operands.
type Instr struct {
	Op   Op
	Typ  Type
	Args []Value

	Blk *Block // owning block
	ID  int    // SSA name; unique within the function

	// Op-specific fields.
	Succs     []*Block  // Br: 1 entry; CondBr: [then, else]
	Incoming  []*Block  // Phi: parallel to Args
	Callee    *Function // Call
	Allocated Type      // Alloca element type
	Count     int64     // Alloca element count
	Kind      CheckKind // Check
	Msg       string    // Check message / source position
}

// Type returns the result type of the instruction.
func (in *Instr) Type() Type { return in.Typ }

// Ref returns the SSA register spelling "%tN".
func (in *Instr) Ref() string { return "%t" + strconv.Itoa(in.ID) }

// IsTerminator reports whether this instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// PhiIncoming returns the value flowing into the phi from pred, or nil if
// pred is not an incoming block.
func (in *Instr) PhiIncoming(pred *Block) Value {
	for i, b := range in.Incoming {
		if b == pred {
			return in.Args[i]
		}
	}
	return nil
}

// SetPhiIncoming sets the value flowing in from pred, appending a new edge
// if pred is not yet incoming.
func (in *Instr) SetPhiIncoming(pred *Block, v Value) {
	for i, b := range in.Incoming {
		if b == pred {
			in.Args[i] = v
			return
		}
	}
	in.Incoming = append(in.Incoming, pred)
	in.Args = append(in.Args, v)
}

// RemovePhiIncoming deletes the edge from pred, if present.
func (in *Instr) RemovePhiIncoming(pred *Block) {
	for i, b := range in.Incoming {
		if b == pred {
			in.Incoming = append(in.Incoming[:i], in.Incoming[i+1:]...)
			in.Args = append(in.Args[:i], in.Args[i+1:]...)
			return
		}
	}
}
