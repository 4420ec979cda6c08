// Package frontend lowers MiniC ASTs to IR in the style of clang -O0:
// every local variable gets a stack slot (alloca), every use loads it,
// and short-circuit operators become explicit control flow. All
// optimization is left to internal/passes, so that the -O0 baseline in
// the paper's tables is faithful.
package frontend

import (
	"fmt"

	"overify/internal/ir"
	"overify/internal/lang"
)

// LowerFiles lowers one or more parsed files (e.g. a libc file and a
// program file) into a single IR module. Functions may be declared in one
// file and defined in another; every declaration of a name, in any file,
// must have the same signature.
//
// Files link the way objects and archives do. A plain file is lowered in
// full. Of a file marked lang.File.Archive, only the functions in the
// call closure of the plain files' functions are lowered and added to the
// module, in their source order; the rest leave no trace. A plain file's
// definition of a name wins over an archive member of that name, which is
// then not linked. Two definitions of one name in plain files are an
// error. Globals are kept from every file.
func LowerFiles(name string, files ...*lang.File) (*ir.Module, error) {
	lw := &lowerer{
		mod:     ir.NewModule(name),
		funcs:   make(map[string]*funcInfo),
		strings: make(map[string]*ir.Global),
	}
	unlinked, err := resolve(files)
	if err != nil {
		return nil, err
	}
	// Phase 1: globals and function signatures.
	for _, f := range files {
		for _, g := range f.Globals {
			if err := lw.lowerGlobal(g); err != nil {
				return nil, err
			}
		}
		for _, fn := range f.Funcs {
			if err := lw.declareFunc(fn, !unlinked[fn]); err != nil {
				return nil, err
			}
		}
	}
	// Phase 2: bodies.
	for _, f := range files {
		for _, fn := range f.Funcs {
			if fn.Body == nil || unlinked[fn] {
				continue
			}
			if err := lw.lowerFuncBody(fn); err != nil {
				return nil, err
			}
		}
	}
	// Any remaining declarations without bodies are an error: the module
	// must be self-contained for verification.
	for _, f := range lw.mod.Funcs {
		if f.IsDeclaration() {
			return nil, fmt.Errorf("%s: function %s declared but never defined", lw.funcs[f.Name].pos, f.Name)
		}
	}
	if err := ir.VerifyModule(lw.mod); err != nil {
		return nil, err
	}
	return lw.mod, nil
}

// resolve is the link step: it picks the one definition each name gets
// and returns the archive declarations that stay out of the module.
func resolve(files []*lang.File) (unlinked map[*lang.FuncDecl]bool, err error) {
	defs := make(map[string]*lang.FuncDecl)
	for _, f := range files {
		for _, fn := range f.Funcs {
			if f.Archive || fn.Body == nil {
				continue
			}
			if prev := defs[fn.Name]; prev != nil {
				return nil, errAt(fn.Pos, "duplicate definition of %s (first defined at %s)", fn.Name, prev.Pos)
			}
			defs[fn.Name] = fn
		}
	}
	for _, f := range files {
		if !f.Archive {
			continue
		}
		for _, fn := range f.Funcs {
			if fn.Body != nil && defs[fn.Name] == nil {
				defs[fn.Name] = fn
			}
		}
	}
	// The call closure of everything the plain files name.
	needed := make(map[string]bool)
	var work []string
	need := func(name string) {
		if !needed[name] {
			needed[name] = true
			work = append(work, name)
		}
	}
	for _, f := range files {
		if !f.Archive {
			for _, fn := range f.Funcs {
				need(fn.Name)
			}
		}
	}
	for len(work) > 0 {
		def := defs[work[len(work)-1]]
		work = work[:len(work)-1]
		if def != nil {
			for _, callee := range def.Calls {
				need(callee)
			}
		}
	}
	unlinked = make(map[*lang.FuncDecl]bool)
	for _, f := range files {
		if f.Archive {
			for _, fn := range f.Funcs {
				if !needed[fn.Name] || (fn.Body != nil && defs[fn.Name] != fn) {
					unlinked[fn] = true
				}
			}
		}
	}
	return unlinked, nil
}

// Lower parses and lowers a single source string; a convenience used
// throughout tests.
func Lower(name, src string) (*ir.Module, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return LowerFiles(name, f)
}

// funcInfo is what the lowerer knows about a function name. Only sig is
// set while every declaration seen so far is an unlinked archive member.
type funcInfo struct {
	sig    ir.FuncType
	irFunc *ir.Function
	ret    *lang.CType
	params []*lang.CType
	pos    lang.Pos
}

type varInfo struct {
	addr ir.Value    // pointer to storage (alloca or global)
	ct   *lang.CType // declared C type
}

type lowerer struct {
	mod     *ir.Module
	funcs   map[string]*funcInfo
	strings map[string]*ir.Global
	nstr    int
}

func errAt(pos lang.Pos, format string, args ...interface{}) error {
	return &lang.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// irType maps a MiniC scalar type to its IR type.
func irType(ct *lang.CType) ir.Type {
	switch ct.Kind {
	case lang.CVoid:
		return ir.Void
	case lang.CChar, lang.CUChar:
		return ir.I8
	case lang.CInt, lang.CUInt:
		return ir.I32
	case lang.CLong, lang.CULong:
		return ir.I64
	case lang.CPtr:
		return ir.PtrTo(irType(ct.Elem))
	case lang.CArray:
		return ir.PtrTo(irType(ct.Elem))
	}
	panic("frontend: unmapped type " + ct.String())
}

func (lw *lowerer) lowerGlobal(g *lang.GlobalDecl) error {
	var elem *lang.CType
	var count int64
	switch g.Type.Kind {
	case lang.CArray:
		elem, count = g.Type.Elem, g.Type.Len
	case lang.CPtr:
		return errAt(g.Pos, "global pointers are not supported")
	default:
		elem, count = g.Type, 1
	}
	if !elem.IsInteger() {
		return errAt(g.Pos, "global element type %s not supported", elem)
	}
	irg := &ir.Global{
		Name:     g.Name,
		Elem:     irType(elem),
		Count:    count,
		ReadOnly: g.ReadOnly,
	}
	if g.Init != nil {
		if int64(len(g.Init)) > count {
			return errAt(g.Pos, "too many initializers for %s[%d]", g.Name, count)
		}
		irg.Init = make([]uint64, count)
		for i, e := range g.Init {
			v, err := constEval(e)
			if err != nil {
				return err
			}
			irg.Init[i] = ir.Mask(elem.Bits(), v)
		}
	}
	lw.mod.AddGlobal(irg)
	return nil
}

// constEval evaluates a compile-time constant expression (global
// initializers).
func constEval(e lang.Expr) (uint64, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return x.Val, nil
	case *lang.Unary:
		v, err := constEval(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case lang.Minus:
			return -v, nil
		case lang.Tilde:
			return ^v, nil
		case lang.Bang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *lang.Binary:
		l, err := constEval(x.L)
		if err != nil {
			return 0, err
		}
		r, err := constEval(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case lang.Plus:
			return l + r, nil
		case lang.Minus:
			return l - r, nil
		case lang.Star:
			return l * r, nil
		case lang.Pipe:
			return l | r, nil
		case lang.Amp:
			return l & r, nil
		case lang.Caret:
			return l ^ r, nil
		case lang.Shl:
			return l << (r & 63), nil
		case lang.Shr:
			return l >> (r & 63), nil
		}
	}
	return 0, errAt(e.Position(), "initializer is not a constant expression")
}

// declareFunc checks fd's signature against earlier declarations of the
// name and, if fd is linked, makes sure the module has the function.
func (lw *lowerer) declareFunc(fd *lang.FuncDecl, linked bool) error {
	var ptypes []ir.Type
	var ctypes []*lang.CType
	var names []string
	for _, p := range fd.Params {
		ct := p.Type.Decay()
		ctypes = append(ctypes, ct)
		ptypes = append(ptypes, irType(ct))
		names = append(names, p.Name)
	}
	sig := ir.FuncType{Ret: irType(fd.Ret), Params: ptypes}
	fi := lw.funcs[fd.Name]
	if fi == nil {
		fi = &funcInfo{sig: sig}
		lw.funcs[fd.Name] = fi
	} else if !ir.SameType(fi.sig, sig) {
		// Re-declaration must match.
		return errAt(fd.Pos, "conflicting declarations of %s", fd.Name)
	}
	if linked && fi.irFunc == nil {
		fi.irFunc = lw.mod.AddFunc(ir.NewFunction(fd.Name, sig, names...))
		fi.ret, fi.params, fi.pos = fd.Ret, ctypes, fd.Pos
	}
	return nil
}

// fnLowerer lowers one function body.
type fnLowerer struct {
	*lowerer
	fd     *lang.FuncDecl
	fn     *ir.Function
	bd     *ir.Builder
	scopes []map[string]varInfo

	breakTo    []*ir.Block
	continueTo []*ir.Block
}

func (lw *lowerer) lowerFuncBody(fd *lang.FuncDecl) error {
	fi := lw.funcs[fd.Name]
	fn := fi.irFunc
	entry := fn.NewBlock("entry")
	fl := &fnLowerer{lowerer: lw, fd: fd, fn: fn, bd: ir.NewBuilder(fn, entry)}
	fl.pushScope()
	// clang -O0 style: spill parameters to stack slots.
	for i, p := range fn.Params {
		ct := fi.params[i]
		slot := fl.bd.Alloca(irType(ct), 1)
		fl.bd.Store(p, slot)
		fl.declare(fd.Params[i].Name, varInfo{addr: slot, ct: ct})
	}
	if err := fl.stmt(fd.Body); err != nil {
		return err
	}
	// Close a fall-through exit.
	if fl.bd.Cur.Term() == nil {
		if fi.ret.IsVoid() {
			fl.bd.Ret(nil)
		} else {
			// Falling off a non-void function returns zero (defined
			// behavior in MiniC, unlike C).
			fl.bd.Ret(zeroValue(fi.ret))
		}
	}
	ir.RemoveUnreachable(fn)
	hoistAllocas(fn)
	return nil
}

// hoistAllocas moves every alloca to the top of the entry block, in
// original order. MiniC allocas are function-scoped, so this is always
// semantics-preserving, and it guarantees that every alloca dominates all
// of its uses regardless of where the declaration appeared.
func hoistAllocas(fn *ir.Function) {
	entry := fn.Entry()
	if entry == nil {
		return
	}
	var allocas []*ir.Instr
	for _, b := range fn.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				allocas = append(allocas, in)
			} else {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
	if len(allocas) == 0 {
		return
	}
	for _, a := range allocas {
		a.Blk = entry
	}
	entry.Instrs = append(allocas, entry.Instrs...)
}

func zeroValue(ct *lang.CType) ir.Value {
	if ct.IsPointer() {
		return ir.NullPtr(irType(ct.Elem))
	}
	return ir.ConstInt(irType(ct).(ir.IntType), 0)
}

func (fl *fnLowerer) pushScope() {
	fl.scopes = append(fl.scopes, make(map[string]varInfo))
}

func (fl *fnLowerer) popScope() { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *fnLowerer) declare(name string, vi varInfo) {
	fl.scopes[len(fl.scopes)-1][name] = vi
}

func (fl *fnLowerer) lookup(name string) (varInfo, bool) {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if vi, ok := fl.scopes[i][name]; ok {
			return vi, true
		}
	}
	// Globals.
	if g := fl.mod.Global(name); g != nil {
		ct := ctypeOfGlobal(g)
		return varInfo{addr: g, ct: ct}, true
	}
	return varInfo{}, false
}

// ctypeOfGlobal reconstructs the MiniC type of a global from its IR shape.
func ctypeOfGlobal(g *ir.Global) *lang.CType {
	var elem *lang.CType
	switch g.Elem.(ir.IntType).Bits {
	case 8:
		elem = lang.TypeChar
	case 32:
		elem = lang.TypeInt
	default:
		elem = lang.TypeLong
	}
	if g.Count == 1 {
		return elem
	}
	return lang.ArrayOf(elem, g.Count)
}

// newBlockHere creates a block and repositions the builder on it if the
// current block is closed (dead-code continuation after return/break).
func (fl *fnLowerer) ensureOpen() {
	if fl.bd.Cur.Term() != nil {
		fl.bd.SetBlock(fl.fn.NewBlock("dead"))
	}
}

// typedVal is an rvalue paired with its MiniC type (already decayed).
type typedVal struct {
	v  ir.Value
	ct *lang.CType
}

// ---------------------------------------------------------------------
// Statements.

func (fl *fnLowerer) stmt(s lang.Stmt) error {
	fl.ensureOpen()
	switch st := s.(type) {
	case *lang.BlockStmt:
		fl.pushScope()
		for _, s2 := range st.List {
			if err := fl.stmt(s2); err != nil {
				return err
			}
		}
		fl.popScope()
		return nil
	case *lang.EmptyStmt:
		return nil
	case *lang.DeclStmt:
		for _, d := range st.Decls {
			if err := fl.declStmt(d); err != nil {
				return err
			}
		}
		return nil
	case *lang.ExprStmt:
		_, err := fl.exprOpt(st.X)
		return err
	case *lang.ReturnStmt:
		return fl.returnStmt(st)
	case *lang.IfStmt:
		return fl.ifStmt(st)
	case *lang.WhileStmt:
		return fl.whileStmt(st)
	case *lang.DoWhileStmt:
		return fl.doWhileStmt(st)
	case *lang.ForStmt:
		return fl.forStmt(st)
	case *lang.BreakStmt:
		if len(fl.breakTo) == 0 {
			return errAt(st.Position(), "break outside loop")
		}
		fl.bd.Br(fl.breakTo[len(fl.breakTo)-1])
		return nil
	case *lang.ContinueStmt:
		if len(fl.continueTo) == 0 {
			return errAt(st.Position(), "continue outside loop")
		}
		fl.bd.Br(fl.continueTo[len(fl.continueTo)-1])
		return nil
	case *lang.AssertStmt:
		cond, err := fl.truthy(st.X)
		if err != nil {
			return err
		}
		fl.bd.Check(ir.CheckAssert, cond, fmt.Sprintf("assert at %s", st.Position()))
		return nil
	}
	return errAt(s.Position(), "unsupported statement")
}

func (fl *fnLowerer) declStmt(d *lang.VarDecl) error {
	switch d.Type.Kind {
	case lang.CArray:
		if !d.Type.Elem.IsInteger() {
			return errAt(d.Pos, "array element type %s not supported", d.Type.Elem)
		}
		slot := fl.bd.Alloca(irType(d.Type.Elem), d.Type.Len)
		fl.declare(d.Name, varInfo{addr: slot, ct: d.Type})
		if d.Init != nil {
			return errAt(d.Pos, "array initializers are not supported for locals")
		}
		return nil
	case lang.CVoid:
		return errAt(d.Pos, "cannot declare void variable")
	default:
		slot := fl.bd.Alloca(irType(d.Type), 1)
		fl.declare(d.Name, varInfo{addr: slot, ct: d.Type})
		if d.Init != nil {
			tv, err := fl.expr(d.Init)
			if err != nil {
				return err
			}
			v, err := fl.convert(tv, d.Type, d.Pos)
			if err != nil {
				return err
			}
			fl.bd.Store(v, slot)
		}
		return nil
	}
}

func (fl *fnLowerer) returnStmt(st *lang.ReturnStmt) error {
	fi := fl.funcs[fl.fd.Name]
	if fi.ret.IsVoid() {
		if st.X != nil {
			return errAt(st.Position(), "return value in void function")
		}
		fl.bd.Ret(nil)
		return nil
	}
	if st.X == nil {
		return errAt(st.Position(), "missing return value")
	}
	tv, err := fl.expr(st.X)
	if err != nil {
		return err
	}
	v, err := fl.convert(tv, fi.ret, st.Position())
	if err != nil {
		return err
	}
	fl.bd.Ret(v)
	return nil
}

func (fl *fnLowerer) ifStmt(st *lang.IfStmt) error {
	cond, err := fl.truthy(st.Cond)
	if err != nil {
		return err
	}
	thenB := fl.fn.NewBlock("if.then")
	endB := fl.fn.NewBlock("if.end")
	elseB := endB
	if st.Else != nil {
		elseB = fl.fn.NewBlock("if.else")
	}
	fl.bd.CondBr(cond, thenB, elseB)
	fl.bd.SetBlock(thenB)
	if err := fl.stmt(st.Then); err != nil {
		return err
	}
	if fl.bd.Cur.Term() == nil {
		fl.bd.Br(endB)
	}
	if st.Else != nil {
		fl.bd.SetBlock(elseB)
		if err := fl.stmt(st.Else); err != nil {
			return err
		}
		if fl.bd.Cur.Term() == nil {
			fl.bd.Br(endB)
		}
	}
	fl.bd.SetBlock(endB)
	return nil
}

func (fl *fnLowerer) whileStmt(st *lang.WhileStmt) error {
	condB := fl.fn.NewBlock("while.cond")
	bodyB := fl.fn.NewBlock("while.body")
	endB := fl.fn.NewBlock("while.end")
	fl.bd.Br(condB)
	fl.bd.SetBlock(condB)
	cond, err := fl.truthy(st.Cond)
	if err != nil {
		return err
	}
	fl.bd.CondBr(cond, bodyB, endB)
	fl.bd.SetBlock(bodyB)
	fl.breakTo = append(fl.breakTo, endB)
	fl.continueTo = append(fl.continueTo, condB)
	err = fl.stmt(st.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	if fl.bd.Cur.Term() == nil {
		fl.bd.Br(condB)
	}
	fl.bd.SetBlock(endB)
	return nil
}

func (fl *fnLowerer) doWhileStmt(st *lang.DoWhileStmt) error {
	bodyB := fl.fn.NewBlock("do.body")
	condB := fl.fn.NewBlock("do.cond")
	endB := fl.fn.NewBlock("do.end")
	fl.bd.Br(bodyB)
	fl.bd.SetBlock(bodyB)
	fl.breakTo = append(fl.breakTo, endB)
	fl.continueTo = append(fl.continueTo, condB)
	err := fl.stmt(st.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	if fl.bd.Cur.Term() == nil {
		fl.bd.Br(condB)
	}
	fl.bd.SetBlock(condB)
	cond, err := fl.truthy(st.Cond)
	if err != nil {
		return err
	}
	fl.bd.CondBr(cond, bodyB, endB)
	fl.bd.SetBlock(endB)
	return nil
}

func (fl *fnLowerer) forStmt(st *lang.ForStmt) error {
	fl.pushScope()
	defer fl.popScope()
	if st.Init != nil {
		if err := fl.stmt(st.Init); err != nil {
			return err
		}
	}
	condB := fl.fn.NewBlock("for.cond")
	bodyB := fl.fn.NewBlock("for.body")
	postB := fl.fn.NewBlock("for.post")
	endB := fl.fn.NewBlock("for.end")
	fl.bd.Br(condB)
	fl.bd.SetBlock(condB)
	if st.Cond != nil {
		cond, err := fl.truthy(st.Cond)
		if err != nil {
			return err
		}
		fl.bd.CondBr(cond, bodyB, endB)
	} else {
		fl.bd.Br(bodyB)
	}
	fl.bd.SetBlock(bodyB)
	fl.breakTo = append(fl.breakTo, endB)
	fl.continueTo = append(fl.continueTo, postB)
	err := fl.stmt(st.Body)
	fl.breakTo = fl.breakTo[:len(fl.breakTo)-1]
	fl.continueTo = fl.continueTo[:len(fl.continueTo)-1]
	if err != nil {
		return err
	}
	if fl.bd.Cur.Term() == nil {
		fl.bd.Br(postB)
	}
	fl.bd.SetBlock(postB)
	if st.Post != nil {
		if _, err := fl.exprOpt(st.Post); err != nil {
			return err
		}
	}
	fl.bd.Br(condB)
	fl.bd.SetBlock(endB)
	return nil
}
