package ir

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// String renders the module in an LLVM-like textual form, stable across
// identical inputs and therefore usable in tests.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; module %s\n", m.Name)
	for _, g := range m.Globals {
		sb.WriteString(g.Def())
		sb.WriteByte('\n')
	}
	if len(m.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for i, f := range m.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		f.WriteText(&sb)
	}
	return sb.String()
}

// Def renders the global's definition line.
func (g *Global) Def() string {
	var sb strings.Builder
	kind := "global"
	if g.ReadOnly {
		kind = "constant"
	}
	fmt.Fprintf(&sb, "@%s = %s [%d x %s]", g.Name, kind, g.Count, g.Elem)
	if g.Init != nil {
		sb.WriteString(" [")
		for i, v := range g.Init {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteString("]")
	} else {
		sb.WriteString(" zeroinitializer")
	}
	return sb.String()
}

// String renders the function with all blocks and instructions.
func (f *Function) String() string {
	var sb strings.Builder
	f.WriteText(&sb)
	return sb.String()
}

// WriteText writes exactly the bytes String returns to w, one line per
// Write, without building the function's or any instruction's text as
// a string first. A content hash (verdicts.KeyFor) writes the IR
// straight into its hasher this way. It returns the first error w
// reports.
func (f *Function) WriteText(w io.Writer) error {
	buf := make([]byte, 0, 128)
	var err error
	line := func() {
		if err == nil {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	if f.IsDeclaration() {
		buf = append(buf, "declare "...)
		buf = appendType(buf, f.Sig)
		buf = append(buf, " @"...)
		buf = append(buf, f.Name...)
		buf = append(buf, '\n')
		line()
		return err
	}
	buf = append(buf, "define "...)
	buf = appendType(buf, f.Sig.Ret)
	buf = append(buf, " @"...)
	buf = append(buf, f.Name...)
	buf = append(buf, '(')
	for i, p := range f.Params {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendType(buf, p.Typ)
		buf = append(buf, " %"...)
		buf = append(buf, p.Nam...)
	}
	buf = append(buf, ") {\n"...)
	line()
	for _, b := range f.Blocks {
		buf = append(buf, b.Name...)
		buf = append(buf, ":\n"...)
		line()
		for _, in := range b.Instrs {
			buf = append(buf, "  "...)
			buf = in.appendText(buf)
			buf = append(buf, '\n')
			line()
		}
	}
	buf = append(buf, "}\n"...)
	line()
	return err
}

// appendType appends t's String spelling to buf.
func appendType(buf []byte, t Type) []byte {
	switch t := t.(type) {
	case IntType:
		return strconv.AppendInt(append(buf, 'i'), int64(t.Bits), 10)
	case PtrType:
		return append(appendType(buf, t.Elem), '*')
	case ArrayType:
		buf = strconv.AppendInt(append(buf, '['), t.Len, 10)
		return append(appendType(append(buf, " x "...), t.Elem), ']')
	case VoidType:
		return append(buf, "void"...)
	case FuncType:
		buf = append(appendType(buf, t.Ret), " ("...)
		for i, p := range t.Params {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendType(buf, p)
		}
		return append(buf, ')')
	case nil:
		return append(buf, "%!s(<nil>)"...)
	}
	return append(buf, t.String()...)
}

// appendRef appends v's Ref spelling to buf.
func appendRef(buf []byte, v Value) []byte {
	switch v := v.(type) {
	case *Instr:
		return strconv.AppendInt(append(buf, "%t"...), int64(v.ID), 10)
	case *Const:
		return strconv.AppendUint(buf, v.Val, 10)
	}
	return append(buf, v.Ref()...)
}

// appendOperand appends "type ref", or "<nil>" for a missing operand.
func appendOperand(buf []byte, v Value) []byte {
	if v == nil {
		return append(buf, "<nil>"...)
	}
	return appendRef(append(appendType(buf, v.Type()), ' '), v)
}

// String renders a single instruction.
func (in *Instr) String() string { return string(in.appendText(nil)) }

// appendText appends the instruction's String spelling to buf.
func (in *Instr) appendText(buf []byte) []byte {
	if !SameType(in.Typ, Void) {
		buf = append(appendRef(buf, in), " = "...)
	}
	switch in.Op {
	case OpAlloca:
		buf = append(appendType(append(buf, "alloca "...), in.Allocated), ", "...)
		buf = strconv.AppendInt(buf, in.Count, 10)
	case OpLoad:
		buf = append(appendType(append(buf, "load "...), in.Typ), ", "...)
		buf = appendOperand(buf, in.Args[0])
	case OpStore:
		buf = append(appendOperand(append(buf, "store "...), in.Args[0]), ", "...)
		buf = appendOperand(buf, in.Args[1])
	case OpGEP:
		buf = append(appendOperand(append(buf, "gep "...), in.Args[0]), ", "...)
		buf = appendOperand(buf, in.Args[1])
	case OpCall:
		buf = append(appendType(append(buf, "call "...), in.Typ), " @"...)
		buf = append(append(buf, in.Callee.Name...), '(')
		for i, a := range in.Args {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = appendOperand(buf, a)
		}
		buf = append(buf, ')')
	case OpPhi:
		buf = append(appendType(append(buf, "phi "...), in.Typ), ' ')
		for i := range in.Args {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = append(appendRef(append(buf, '['), in.Args[i]), ", %"...)
			buf = append(append(buf, in.Incoming[i].Name...), ']')
		}
	case OpSelect:
		buf = append(appendOperand(append(buf, "select "...), in.Args[0]), ", "...)
		buf = append(appendOperand(buf, in.Args[1]), ", "...)
		buf = appendOperand(buf, in.Args[2])
	case OpZExt, OpSExt, OpTrunc:
		buf = append(append(buf, in.Op.String()...), ' ')
		buf = append(appendOperand(buf, in.Args[0]), " to "...)
		buf = appendType(buf, in.Typ)
	case OpCheck:
		buf = append(append(append(buf, "check "...), in.Kind.String()...), ", "...)
		buf = append(appendOperand(buf, in.Args[0]), " ; "...)
		buf = strconv.AppendQuote(buf, in.Msg)
	case OpBr:
		buf = append(append(buf, "br label %"...), in.Succs[0].Name...)
	case OpCondBr:
		buf = append(appendOperand(append(buf, "br "...), in.Args[0]), ", label %"...)
		buf = append(append(buf, in.Succs[0].Name...), ", label %"...)
		buf = append(buf, in.Succs[1].Name...)
	case OpRet:
		if len(in.Args) == 0 {
			buf = append(buf, "ret void"...)
		} else {
			buf = appendOperand(append(buf, "ret "...), in.Args[0])
		}
	case OpUnreachable:
		buf = append(buf, "unreachable"...)
	default:
		// Binary ops, comparisons.
		buf = append(append(buf, in.Op.String()...), ' ')
		buf = append(appendType(buf, in.Args[0].Type()), ' ')
		buf = append(appendRef(buf, in.Args[0]), ", "...)
		buf = appendRef(buf, in.Args[1])
	}
	if in.Meta != nil && in.Meta.Range != nil {
		buf = strconv.AppendUint(append(buf, " ; !range ["...), in.Meta.Range.Lo, 10)
		buf = strconv.AppendUint(append(buf, ','), in.Meta.Range.Hi, 10)
		buf = append(buf, ']')
	}
	return buf
}
