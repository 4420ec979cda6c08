package lang

import (
	"fmt"

	"overify/internal/freelist"
)

// Parser is a recursive-descent parser for MiniC.
type Parser struct {
	toks  []Token
	pos   int
	calls []string // callee names seen in the function body being parsed
}

// tokenBufs holds token buffers between parses. A parse's tokens die
// with it (the AST copies what it keeps out of them), so the next
// parse refills the same array instead of allocating one.
var tokenBufs freelist.List[[]Token]

// Parse parses a MiniC translation unit.
func Parse(src string) (*File, error) {
	buf := tokenBufs.Get()
	toks, err := tokenizeInto(*buf, src)
	if err != nil {
		return nil, err // the buffer is dropped with what it was filled with
	}
	defer func() {
		// Only toks was written: the pooled buffer keeps no source
		// text alive.
		clear(toks)
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}()
	p := &Parser{toks: toks}
	return p.parseFile()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) peekKind(n int) Kind {
	if p.pos+n >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %s, found %s", k, p.describe(p.cur()))
}

func (p *Parser) describe(t Token) string {
	switch t.Kind {
	case IDENT:
		return fmt.Sprintf("identifier %q", t.Text)
	case INTLIT:
		return fmt.Sprintf("literal %s", t.Text)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		ro := p.accept(KwConst)
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		typ := p.parseStars(base)
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.at(LParen) {
			fn, err := p.parseFuncRest(typ, name)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
			continue
		}
		g, err := p.parseGlobalRest(typ, name, ro)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, g)
	}
	return f, nil
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	switch p.cur().Kind {
	case KwInt, KwChar, KwLong, KwVoid, KwUnsigned, KwSigned, KwConst:
		return true
	}
	return false
}

func (p *Parser) parseBaseType() (*CType, error) {
	unsigned := false
	signed := false
	for {
		if p.accept(KwUnsigned) {
			unsigned = true
			continue
		}
		if p.accept(KwSigned) {
			signed = true
			continue
		}
		break
	}
	switch {
	case p.accept(KwVoid):
		if unsigned || signed {
			return nil, p.errf("void cannot be signed or unsigned")
		}
		return TypeVoid, nil
	case p.accept(KwChar):
		if unsigned {
			return TypeUChar, nil
		}
		return TypeChar, nil
	case p.accept(KwLong):
		p.accept(KwLong) // allow "long long"
		p.accept(KwInt)  // allow "long int"
		if unsigned {
			return TypeULong, nil
		}
		return TypeLong, nil
	case p.accept(KwInt):
		if unsigned {
			return TypeUInt, nil
		}
		return TypeInt, nil
	default:
		if unsigned {
			return TypeUInt, nil // bare "unsigned"
		}
		if signed {
			return TypeInt, nil // bare "signed"
		}
		return nil, p.errf("expected type, found %s", p.describe(p.cur()))
	}
}

func (p *Parser) parseStars(t *CType) *CType {
	for p.accept(Star) {
		p.accept(KwConst) // const pointers are accepted and ignored
		t = PtrTo(t)
	}
	return t
}

func (p *Parser) parseFuncRest(ret *CType, name Token) (*FuncDecl, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Text, Ret: ret, Pos: name.Pos}
	if p.accept(KwVoid) && p.at(RParen) {
		// (void) parameter list
	} else if !p.at(RParen) {
		for {
			p.accept(KwConst)
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			typ := p.parseStars(base)
			pname, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.accept(LBracket) {
				// Array parameters decay to pointers.
				if p.at(INTLIT) {
					p.next()
				}
				if _, err := p.expect(RBracket); err != nil {
					return nil, err
				}
				typ = PtrTo(typ)
			}
			fn.Params = append(fn.Params, &VarDecl{Name: pname.Text, Type: typ, Pos: pname.Pos})
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if p.accept(Semi) {
		return fn, nil // declaration only
	}
	p.calls = nil
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body, fn.Calls = body, p.calls
	return fn, nil
}

func (p *Parser) parseGlobalRest(typ *CType, name Token, ro bool) (*GlobalDecl, error) {
	g := &GlobalDecl{Name: name.Text, Type: typ, ReadOnly: ro, Pos: name.Pos}
	if p.accept(LBracket) {
		n, err := p.expect(INTLIT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		g.Type = ArrayOf(typ, int64(n.Val))
	}
	if p.accept(Assign) {
		if p.accept(LBrace) {
			for !p.at(RBrace) {
				e, err := p.parseCondExpr()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, e)
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RBrace); err != nil {
				return nil, err
			}
		} else if p.at(STRLIT) && g.Type.Kind == CArray {
			s := p.next()
			for i := 0; i < len(s.Str); i++ {
				g.Init = append(g.Init, &IntLit{exprBase: exprBase{Pos: s.Pos}, Val: uint64(s.Str[i])})
			}
			g.Init = append(g.Init, &IntLit{exprBase: exprBase{Pos: s.Pos}})
		} else {
			e, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			g.Init = []Expr{e}
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{stmtBase: stmtBase{Pos: lb.Pos}}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.List = append(blk.List, s)
	}
	p.next() // consume RBrace
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case Semi:
		p.next()
		return &EmptyStmt{stmtBase{Pos: t.Pos}}, nil
	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(KwElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Then: then, Else: els}, nil
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Body: body}, nil
	case KwDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{stmtBase: stmtBase{Pos: t.Pos}, Body: body, Cond: cond}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		var x Expr
		if !p.at(Semi) {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ReturnStmt{stmtBase: stmtBase{Pos: t.Pos}, X: x}, nil
	case KwBreak:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase{Pos: t.Pos}}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase{Pos: t.Pos}}, nil
	case KwAssert:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &AssertStmt{stmtBase: stmtBase{Pos: t.Pos}, X: x}, nil
	}
	if p.atTypeStart() {
		return p.parseDeclStmt()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase: stmtBase{Pos: t.Pos}, X: x}, nil
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	pos := p.cur().Pos
	p.accept(KwConst)
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{stmtBase: stmtBase{Pos: pos}}
	for {
		typ := p.parseStars(base)
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.accept(LBracket) {
			n, err := p.expect(INTLIT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			typ = ArrayOf(typ, int64(n.Val))
		}
		vd := &VarDecl{Name: name.Text, Type: typ, Pos: name.Pos}
		if p.accept(Assign) {
			vd.Init, err = p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
		}
		ds.Decls = append(ds.Decls, vd)
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{stmtBase: stmtBase{Pos: t.Pos}}
	if !p.accept(Semi) {
		if p.atTypeStart() {
			init, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			fs.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ExprStmt{stmtBase: stmtBase{Pos: x.Position()}, X: x}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	}
	if !p.at(Semi) {
		var err error
		fs.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		var err error
		fs.Post, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// Expression parsing. MiniC has no comma operator, so parseExpr is
// parseAssignExpr.
func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func isAssignOp(k Kind) bool { return k >= Assign && k <= ShrAssign }

func (p *Parser) parseAssignExpr() (Expr, error) {
	l, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().Kind) {
		op := p.next()
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinExpr(0)
	if err != nil {
		return nil, err
	}
	if p.at(Question) {
		q := p.next()
		t, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		f, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{exprBase: exprBase{Pos: q.Pos}, C: c, T: t, F: f}, nil
	}
	return c, nil
}

// binPrec returns the binding power of infix operators; 0 means not an
// infix operator.
func binPrec(k Kind) int {
	switch k {
	case OrOr:
		return 1
	case AndAnd:
		return 2
	case Pipe:
		return 3
	case Caret:
		return 4
	case Amp:
		return 5
	case Eq, Ne:
		return 6
	case Lt, Le, Gt, Ge:
		return 7
	case Shl, Shr:
		return 8
	case Plus, Minus:
		return 9
	case Star, Slash, Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinExpr(minPrec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec == 0 || prec < minPrec {
			return l, nil
		}
		op := p.next()
		r, err := p.parseBinExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Bang, Tilde, Minus, Plus, Star, Amp:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Kind == Plus {
			return x, nil
		}
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}, nil
	case Inc, Dec:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}, nil
	case LParen:
		// Cast if '(' is followed by a type.
		if p.isCastStart() {
			p.next() // (
			p.accept(KwConst)
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			typ := p.parseStars(base)
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &CastExpr{exprBase: exprBase{Pos: t.Pos}, To: typ, X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) isCastStart() bool {
	if !p.at(LParen) {
		return false
	}
	switch p.peekKind(1) {
	case KwInt, KwChar, KwLong, KwVoid, KwUnsigned, KwSigned, KwConst:
		return true
	}
	return false
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Kind {
		case LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{Pos: t.Pos}, X: x, I: idx}
		case Inc, Dec:
			p.next()
			x = &Postfix{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}
		case LParen:
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf("calls must name a function directly")
			}
			p.next()
			call := &Call{exprBase: exprBase{Pos: t.Pos}, Name: id.Name}
			p.calls = append(p.calls, id.Name)
			if !p.at(RParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(Comma) {
						break
					}
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x = call
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Val}, nil
	case CHARLIT:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Val, IsChar: true}, nil
	case STRLIT:
		p.next()
		return &StrLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Str}, nil
	case IDENT:
		p.next()
		return &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("expected expression, found %s", p.describe(t))
}
