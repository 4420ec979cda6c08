// Package interp is the reference concrete executor for the IR. It defines
// the ground-truth semantics that the bytecode VM and the symbolic
// executor must agree with, and it doubles as the oracle for the
// differential tests that compare program behavior across optimization
// levels (the paper's §2.3 equivalence argument).
package interp

import (
	"fmt"

	"overify/internal/ir"
)

// TrapKind classifies run-time faults.
type TrapKind int

// Trap kinds; these are the "crashes" that §3's runtime checks turn all
// illegal behavior into.
const (
	TrapNone TrapKind = iota
	TrapDivByZero
	TrapNullDeref
	TrapOutOfBounds
	TrapCheckFailed
	TrapUnreachable
	TrapPtrDomain  // ptrdiff/relational cmp across different objects
	TrapStoreConst // write to read-only global
	TrapLimit      // step or stack budget exhausted
)

var trapNames = [...]string{
	"none", "division by zero", "null dereference", "out-of-bounds access",
	"check failed", "unreachable executed", "pointer domain error",
	"write to constant", "resource limit exceeded",
}

// String returns the trap description.
func (k TrapKind) String() string {
	if int(k) < len(trapNames) {
		return trapNames[k]
	}
	return "trap?"
}

// Trap is a run-time fault raised by the interpreter.
type Trap struct {
	Kind TrapKind
	Msg  string
}

// Error formats the trap.
func (t *Trap) Error() string { return fmt.Sprintf("trap: %s: %s", t.Kind, t.Msg) }

// Object is a memory object: Count elements of an element type. Cells
// hold full runtime values so that spilled pointers (clang -O0 style
// lowering) can live in memory. Pointers reference an Object plus an
// element offset.
type Object struct {
	Elem     ir.Type
	Count    int64
	Data     []Value
	ReadOnly bool
	Name     string
}

// Value is a runtime value: either an integer (Bits) or a pointer
// (Obj, Off). A nil Obj with IsPtr set is the null pointer.
type Value struct {
	IsPtr bool
	Bits  uint64
	Obj   *Object
	Off   int64
}

// IntVal makes an integer runtime value masked to the width of t.
func IntVal(t ir.IntType, v uint64) Value { return Value{Bits: ir.Mask(t.Bits, v)} }

// PtrVal makes a pointer runtime value.
func PtrVal(obj *Object, off int64) Value { return Value{IsPtr: true, Obj: obj, Off: off} }

// Stats counts the work performed during execution; the paper's t_run and
// instruction-count columns come from here.
type Stats struct {
	Instrs   int64 // instructions executed
	Branches int64 // conditional branches executed
	Loads    int64
	Stores   int64
	Calls    int64
	MaxDepth int // deepest call stack
}

// Options bound an execution.
type Options struct {
	MaxSteps int64 // 0 means the default (100M)
	MaxDepth int   // 0 means the default (10k frames)
}

// Machine executes IR functions concretely.
type Machine struct {
	Mod     *ir.Module
	Stats   Stats
	opts    Options
	globals map[*ir.Global]*Object
	depth   int
}

// NewMachine prepares a machine with fresh global storage.
func NewMachine(mod *ir.Module, opts Options) *Machine {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 100_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 10_000
	}
	m := &Machine{Mod: mod, opts: opts, globals: make(map[*ir.Global]*Object)}
	for _, g := range mod.Globals {
		obj := &Object{Elem: g.Elem, Count: g.Count, ReadOnly: g.ReadOnly, Name: "@" + g.Name}
		obj.Data = make([]Value, g.Count)
		for i, v := range g.Init {
			obj.Data[i] = Value{Bits: v}
		}
		m.globals[g] = obj
	}
	return m
}

// ByteObject builds an i8 object from raw bytes.
func ByteObject(name string, b []byte) *Object {
	d := make([]Value, len(b))
	for i, c := range b {
		d[i] = Value{Bits: uint64(c)}
	}
	return &Object{Elem: ir.I8, Count: int64(len(b)), Data: d, Name: name}
}

// GlobalData returns a snapshot of the integer cell values of the named
// global, for drivers reading program output after a run.
func (m *Machine) GlobalData(name string) ([]uint64, bool) {
	g := m.Mod.Global(name)
	if g == nil {
		return nil, false
	}
	obj := m.globals[g]
	out := make([]uint64, len(obj.Data))
	for i, c := range obj.Data {
		out[i] = c.Bits
	}
	return out, true
}

// Call runs the named function with the given arguments and returns its
// result.
func (m *Machine) Call(name string, args ...Value) (Value, error) {
	fn := m.Mod.Func(name)
	if fn == nil {
		return Value{}, fmt.Errorf("interp: no function %q", name)
	}
	return m.callFunc(fn, args)
}

func (m *Machine) trap(kind TrapKind, format string, args ...interface{}) error {
	return &Trap{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) callFunc(fn *ir.Function, args []Value) (Value, error) {
	if fn.IsDeclaration() {
		return Value{}, fmt.Errorf("interp: call to declaration %q", fn.Name)
	}
	if len(args) != len(fn.Params) {
		return Value{}, fmt.Errorf("interp: call %s: %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	m.depth++
	if m.depth > m.Stats.MaxDepth {
		m.Stats.MaxDepth = m.depth
	}
	defer func() { m.depth-- }()
	if m.depth > m.opts.MaxDepth {
		return Value{}, m.trap(TrapLimit, "call depth exceeds %d", m.opts.MaxDepth)
	}

	frame := make(map[ir.Value]Value, 32)
	for i, p := range fn.Params {
		frame[p] = args[i]
	}

	block := fn.Entry()
	var prev *ir.Block
	for {
		// Phase 1: evaluate phis together (they read edge values).
		phis := block.Phis()
		if len(phis) > 0 {
			tmp := make([]Value, len(phis))
			for i, phi := range phis {
				v := phi.PhiIncoming(prev)
				if v == nil {
					return Value{}, fmt.Errorf("interp: %s/%s: phi %s has no edge from %s",
						fn.Name, block.Name, phi.Ref(), prev.Name)
				}
				ev, err := m.eval(frame, v)
				if err != nil {
					return Value{}, err
				}
				tmp[i] = ev
				m.Stats.Instrs++
			}
			for i, phi := range phis {
				frame[phi] = tmp[i]
			}
		}

		for _, in := range block.Instrs[len(phis):] {
			m.Stats.Instrs++
			if m.Stats.Instrs > m.opts.MaxSteps {
				return Value{}, m.trap(TrapLimit, "step budget %d exhausted", m.opts.MaxSteps)
			}
			switch in.Op {
			case ir.OpBr:
				prev, block = block, in.Succs[0]
			case ir.OpCondBr:
				m.Stats.Branches++
				c, err := m.eval(frame, in.Args[0])
				if err != nil {
					return Value{}, err
				}
				if c.Bits != 0 {
					prev, block = block, in.Succs[0]
				} else {
					prev, block = block, in.Succs[1]
				}
			case ir.OpRet:
				if len(in.Args) == 0 {
					return Value{}, nil
				}
				return m.eval(frame, in.Args[0])
			case ir.OpUnreachable:
				return Value{}, m.trap(TrapUnreachable, "in %s/%s", fn.Name, block.Name)
			default:
				v, err := m.step(frame, in)
				if err != nil {
					return Value{}, err
				}
				if !ir.SameType(in.Typ, ir.Void) {
					frame[in] = v
				}
				continue
			}
			break // took a terminator: resume outer loop with new block
		}
	}
}

// eval resolves an operand to a runtime value.
func (m *Machine) eval(frame map[ir.Value]Value, v ir.Value) (Value, error) {
	switch x := v.(type) {
	case *ir.Const:
		return Value{Bits: x.Val}, nil
	case *ir.Null:
		return Value{IsPtr: true}, nil
	case *ir.Global:
		return PtrVal(m.globals[x], 0), nil
	default:
		rv, ok := frame[v]
		if !ok {
			return Value{}, fmt.Errorf("interp: use of undefined value %s", v.Ref())
		}
		return rv, nil
	}
}

// step executes one non-terminator, non-phi instruction.
func (m *Machine) step(frame map[ir.Value]Value, in *ir.Instr) (Value, error) {
	ev := func(i int) (Value, error) { return m.eval(frame, in.Args[i]) }
	switch {
	case in.Op.IsBinary():
		a, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		b, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		bits := in.Typ.(ir.IntType).Bits
		r, ok := ir.EvalBin(in.Op, bits, a.Bits, b.Bits)
		if !ok {
			return Value{}, m.trap(TrapDivByZero, "%s in %s", in.Op, in.Blk.Fn.Name)
		}
		return Value{Bits: r}, nil

	case in.Op.IsCmp():
		a, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		b, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		if a.IsPtr || b.IsPtr {
			return m.cmpPtr(in, a, b)
		}
		bits := in.Args[0].Type().(ir.IntType).Bits
		if ir.EvalCmp(in.Op, bits, a.Bits, b.Bits) {
			return Value{Bits: 1}, nil
		}
		return Value{Bits: 0}, nil
	}

	switch in.Op {
	case ir.OpSelect:
		c, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		// Note: both arms are evaluated operands (they are values already
		// computed); select itself is branch-free.
		t, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		f, err := ev(2)
		if err != nil {
			return Value{}, err
		}
		if c.Bits != 0 {
			return t, nil
		}
		return f, nil

	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		a, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		from := in.Args[0].Type().(ir.IntType).Bits
		to := in.Typ.(ir.IntType).Bits
		return Value{Bits: ir.EvalCast(in.Op, from, to, a.Bits)}, nil

	case ir.OpAlloca:
		obj := &Object{
			Elem:  in.Allocated,
			Count: in.Count,
			Data:  make([]Value, in.Count),
			Name:  fmt.Sprintf("%s.%s", in.Blk.Fn.Name, in.Ref()),
		}
		return PtrVal(obj, 0), nil

	case ir.OpGEP:
		p, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		idx, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		if p.Obj == nil {
			return Value{}, m.trap(TrapNullDeref, "gep on null pointer")
		}
		return PtrVal(p.Obj, p.Off+int64(idx.Bits)), nil

	case ir.OpPtrDiff:
		a, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		b, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		if a.Obj != b.Obj {
			return Value{}, m.trap(TrapPtrDomain, "ptrdiff across objects")
		}
		return Value{Bits: uint64(a.Off - b.Off)}, nil

	case ir.OpLoad:
		p, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		m.Stats.Loads++
		if p.Obj == nil {
			return Value{}, m.trap(TrapNullDeref, "load from null")
		}
		if p.Off < 0 || p.Off >= p.Obj.Count {
			return Value{}, m.trap(TrapOutOfBounds, "load %s[%d] (size %d)", p.Obj.Name, p.Off, p.Obj.Count)
		}
		return p.Obj.Data[p.Off], nil

	case ir.OpStore:
		v, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		p, err := ev(1)
		if err != nil {
			return Value{}, err
		}
		m.Stats.Stores++
		if p.Obj == nil {
			return Value{}, m.trap(TrapNullDeref, "store to null")
		}
		if p.Off < 0 || p.Off >= p.Obj.Count {
			return Value{}, m.trap(TrapOutOfBounds, "store %s[%d] (size %d)", p.Obj.Name, p.Off, p.Obj.Count)
		}
		if p.Obj.ReadOnly {
			return Value{}, m.trap(TrapStoreConst, "store to %s", p.Obj.Name)
		}
		if !v.IsPtr {
			if et, ok := p.Obj.Elem.(ir.IntType); ok {
				v.Bits = ir.Mask(et.Bits, v.Bits)
			}
		}
		p.Obj.Data[p.Off] = v
		return Value{}, nil

	case ir.OpCall:
		m.Stats.Calls++
		args := make([]Value, len(in.Args))
		for i := range in.Args {
			a, err := ev(i)
			if err != nil {
				return Value{}, err
			}
			args[i] = a
		}
		return m.callFunc(in.Callee, args)

	case ir.OpCheck:
		c, err := ev(0)
		if err != nil {
			return Value{}, err
		}
		if c.Bits == 0 {
			return Value{}, m.trap(TrapCheckFailed, "%s: %s", in.Kind, in.Msg)
		}
		return Value{}, nil
	}
	return Value{}, fmt.Errorf("interp: cannot execute %s", in.Op)
}

func (m *Machine) cmpPtr(in *ir.Instr, a, b Value) (Value, error) {
	boolVal := func(c bool) Value {
		if c {
			return Value{Bits: 1}
		}
		return Value{Bits: 0}
	}
	switch in.Op {
	case ir.OpEq:
		return boolVal(a.Obj == b.Obj && (a.Obj == nil || a.Off == b.Off)), nil
	case ir.OpNe:
		return boolVal(a.Obj != b.Obj || (a.Obj != nil && a.Off != b.Off)), nil
	}
	if a.Obj != b.Obj {
		return Value{}, m.trap(TrapPtrDomain, "relational pointer comparison across objects")
	}
	switch in.Op {
	case ir.OpULt:
		return boolVal(a.Off < b.Off), nil
	case ir.OpULe:
		return boolVal(a.Off <= b.Off), nil
	case ir.OpUGt:
		return boolVal(a.Off > b.Off), nil
	case ir.OpUGe:
		return boolVal(a.Off >= b.Off), nil
	}
	return Value{}, fmt.Errorf("interp: bad pointer comparison %s", in.Op)
}
