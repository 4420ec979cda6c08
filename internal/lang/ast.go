package lang

import "fmt"

// CType is a MiniC semantic type.
type CType struct {
	Kind CTypeKind
	Elem *CType // pointer element / array element
	Len  int64  // array length
}

// CTypeKind enumerates MiniC type constructors.
type CTypeKind int

// MiniC type kinds. Integer kinds carry fixed widths: char 8, int 32,
// long 64 bits.
const (
	CVoid CTypeKind = iota
	CChar
	CUChar
	CInt
	CUInt
	CLong
	CULong
	CPtr
	CArray
)

// Common type singletons.
var (
	TypeVoid  = &CType{Kind: CVoid}
	TypeChar  = &CType{Kind: CChar}
	TypeUChar = &CType{Kind: CUChar}
	TypeInt   = &CType{Kind: CInt}
	TypeUInt  = &CType{Kind: CUInt}
	TypeLong  = &CType{Kind: CLong}
	TypeULong = &CType{Kind: CULong}
)

// PtrTo returns the pointer type to elem.
func PtrTo(elem *CType) *CType { return &CType{Kind: CPtr, Elem: elem} }

// ArrayOf returns the array type of n elems.
func ArrayOf(elem *CType, n int64) *CType {
	return &CType{Kind: CArray, Elem: elem, Len: n}
}

// IsInteger reports whether t is an integer type.
func (t *CType) IsInteger() bool {
	switch t.Kind {
	case CChar, CUChar, CInt, CUInt, CLong, CULong:
		return true
	}
	return false
}

// IsPointer reports whether t is a pointer (or array, which decays).
func (t *CType) IsPointer() bool { return t.Kind == CPtr || t.Kind == CArray }

// IsVoid reports whether t is void.
func (t *CType) IsVoid() bool { return t.Kind == CVoid }

// Signed reports whether an integer type is signed.
func (t *CType) Signed() bool {
	switch t.Kind {
	case CChar, CInt, CLong:
		return true
	}
	return false
}

// Bits returns the width of an integer type in bits.
func (t *CType) Bits() int {
	switch t.Kind {
	case CChar, CUChar:
		return 8
	case CInt, CUInt:
		return 32
	case CLong, CULong:
		return 64
	}
	return 0
}

// Decay converts arrays to pointers to their element type; other types
// are returned unchanged.
func (t *CType) Decay() *CType {
	if t.Kind == CArray {
		return PtrTo(t.Elem)
	}
	return t
}

// Equal reports structural type equality.
func (t *CType) Equal(o *CType) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Len != o.Len {
		return false
	}
	if t.Elem != nil || o.Elem != nil {
		if t.Elem == nil || o.Elem == nil {
			return false
		}
		return t.Elem.Equal(o.Elem)
	}
	return true
}

// String renders the type in C syntax.
func (t *CType) String() string {
	switch t.Kind {
	case CVoid:
		return "void"
	case CChar:
		return "char"
	case CUChar:
		return "unsigned char"
	case CInt:
		return "int"
	case CUInt:
		return "unsigned int"
	case CLong:
		return "long"
	case CULong:
		return "unsigned long"
	case CPtr:
		return t.Elem.String() + "*"
	case CArray:
		return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Len)
	}
	return "?"
}

// Expr is a MiniC expression AST node.
type Expr interface {
	exprNode()
	// Position returns the source position of the expression.
	Position() Pos
}

type exprBase struct{ Pos Pos }

func (exprBase) exprNode()       {}
func (e exprBase) Position() Pos { return e.Pos }

// IntLit is an integer or character literal.
type IntLit struct {
	exprBase
	Val    uint64
	IsChar bool
}

// StrLit is a string literal; its value is a pointer to a NUL-terminated
// read-only i8 array.
type StrLit struct {
	exprBase
	Val string
}

// Ident references a variable, parameter or function by name.
type Ident struct {
	exprBase
	Name string
}

// Unary is a prefix operator: ! ~ - + * & ++ --.
type Unary struct {
	exprBase
	Op Kind
	X  Expr
}

// Postfix is a postfix ++ or --.
type Postfix struct {
	exprBase
	Op Kind
	X  Expr
}

// Binary is an infix binary operator (arithmetic, bitwise, comparison).
// Short-circuit && and || are represented with Binary and lowered with
// control flow by the frontend.
type Binary struct {
	exprBase
	Op   Kind
	L, R Expr
}

// Assign is an assignment, possibly compound (Op != Assign means e.g. +=).
type AssignExpr struct {
	exprBase
	Op   Kind
	L, R Expr
}

// Cond is the ternary conditional operator.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Call is a function call by name.
type Call struct {
	exprBase
	Name string
	Args []Expr
}

// Index is array/pointer subscripting: X[I].
type Index struct {
	exprBase
	X, I Expr
}

// CastExpr is an explicit C cast to a scalar type.
type CastExpr struct {
	exprBase
	To *CType
	X  Expr
}

// Stmt is a MiniC statement AST node.
type Stmt interface {
	stmtNode()
	// Position returns the source position of the statement.
	Position() Pos
}

type stmtBase struct{ Pos Pos }

func (stmtBase) stmtNode()       {}
func (s stmtBase) Position() Pos { return s.Pos }

// DeclStmt declares one or more local variables of a base type.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// VarDecl is a single declarator: a scalar or array variable with an
// optional initializer (scalars only).
type VarDecl struct {
	Name string
	Type *CType
	Init Expr // nil if absent
	Pos  Pos
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if/else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// ForStmt is a C for loop; Init may be a DeclStmt or ExprStmt.
type ForStmt struct {
	stmtBase
	Init Stmt // nil if absent
	Cond Expr // nil means true
	Post Expr // nil if absent
	Body Stmt
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	stmtBase
	X Expr // nil for void return
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ stmtBase }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ stmtBase }

// BlockStmt is a brace-delimited scope.
type BlockStmt struct {
	stmtBase
	List []Stmt
}

// AssertStmt lowers to a runtime check (CheckAssert).
type AssertStmt struct {
	stmtBase
	X Expr
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ stmtBase }

// FuncDecl is a function definition or declaration (Body nil).
type FuncDecl struct {
	Name   string
	Ret    *CType
	Params []*VarDecl
	Body   *BlockStmt // nil for a declaration
	Pos    Pos

	// Calls names every function Body calls, in source order (a name
	// repeats if it is called twice). The parser records it so a linker
	// can follow the call graph without walking statements.
	Calls []string
}

// GlobalDecl is a file-scope variable, optionally const with an
// initializer list (arrays) or single expression (scalars).
type GlobalDecl struct {
	Name     string
	Type     *CType
	Init     []Expr // element initializers; nil for zero-init
	ReadOnly bool
	Pos      Pos
}

// File is a parsed translation unit.
type File struct {
	Funcs   []*FuncDecl
	Globals []*GlobalDecl

	// Archive marks the file as a library in the linker's sense — a .a,
	// not a .o: frontend.LowerFiles links only the functions that the
	// other files reference. It is a property of the input, set by
	// whoever produced the file (libc.Parse), never by an option.
	Archive bool
}
