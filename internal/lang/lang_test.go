package lang

import (
	"strings"
	"testing"
)

func TestLexerTokens(t *testing.T) {
	toks, err := Tokenize(`int x = 0x1F + 'a' - 10; // comment
		/* block */ if (x >= 2) x <<= 3;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{
		KwInt, IDENT, Assign, INTLIT, Plus, CHARLIT, Minus, INTLIT, Semi,
		KwIf, LParen, IDENT, Ge, INTLIT, RParen, IDENT, ShlAssign, INTLIT, Semi,
		EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestLexerLiterals(t *testing.T) {
	tests := []struct {
		src  string
		val  uint64
		kind Kind
	}{
		{"42", 42, INTLIT},
		{"0x2A", 42, INTLIT},
		{"0", 0, INTLIT},
		{"'A'", 65, CHARLIT},
		{`'\n'`, 10, CHARLIT},
		{`'\0'`, 0, CHARLIT},
		{`'\\'`, 92, CHARLIT},
		{`'\x41'`, 65, CHARLIT},
		{"100u", 100, INTLIT},
		{"7L", 7, INTLIT},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if toks[0].Kind != tt.kind || toks[0].Val != tt.val {
			t.Errorf("%q = (%s, %d), want (%s, %d)", tt.src, toks[0].Kind, toks[0].Val, tt.kind, tt.val)
		}
	}
}

func TestLexerStrings(t *testing.T) {
	toks, err := Tokenize(`"hi\tthere\n" "plain" "a\x41b" "\"q" ""`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"hi\tthere\n", "plain", "aAb", `"q`, ""} {
		if toks[i].Str != want {
			t.Errorf("string %d: got %q, want %q", i, toks[i].Str, want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		`"unterminated`,
		`'`,
		`''`,
		`'ab'`,
		"/* unterminated",
		"@",
		`'\q'`,
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: expected lex error", src)
		}
	}
}

func TestParserFunctions(t *testing.T) {
	f, err := Parse(`
		int add(int a, int b) { return a + b; }
		void noop(void) { }
		unsigned char deref(unsigned char *p) { return *p; }
		long big(long x);
		long big(long x) { return x; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 5 {
		t.Fatalf("got %d funcs, want 5 (incl. the declaration)", len(f.Funcs))
	}
	if f.Funcs[0].Name != "add" || len(f.Funcs[0].Params) != 2 {
		t.Errorf("add parsed wrong: %+v", f.Funcs[0])
	}
	if f.Funcs[1].Ret.Kind != CVoid {
		t.Error("noop should return void")
	}
	if f.Funcs[2].Params[0].Type.Kind != CPtr || f.Funcs[2].Params[0].Type.Elem.Kind != CUChar {
		t.Errorf("deref param type = %s", f.Funcs[2].Params[0].Type)
	}
	if f.Funcs[3].Body != nil {
		t.Error("declaration should have no body")
	}
}

func TestParserGlobals(t *testing.T) {
	f, err := Parse(`
		int counter;
		const char table[4] = {1, 2, 3, 4};
		char msg[6] = "hello";
		int limit = 10 + 2;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 4 {
		t.Fatalf("got %d globals", len(f.Globals))
	}
	if !f.Globals[1].ReadOnly {
		t.Error("table should be const")
	}
	if len(f.Globals[2].Init) != 6 { // "hello" + NUL
		t.Errorf("msg init len = %d, want 6", len(f.Globals[2].Init))
	}
}

func TestParserPrecedence(t *testing.T) {
	// 1 + 2 * 3 must parse as 1 + (2 * 3).
	f, err := Parse(`int f(void) { return 1 + 2 * 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.List[0].(*ReturnStmt)
	add, ok := ret.X.(*Binary)
	if !ok || add.Op != Plus {
		t.Fatalf("top is %T, want + binary", ret.X)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != Star {
		t.Fatalf("rhs is %#v, want * binary", add.R)
	}
}

func TestParserStatements(t *testing.T) {
	src := `
	int f(int n) {
		int acc = 0;
		for (int i = 0; i < n; i++) {
			if (i % 2 == 0) continue;
			acc += i;
		}
		while (acc > 100) acc /= 2;
		do { acc--; } while (acc > 50);
		assert(acc <= 50);
		return acc > 0 ? acc : -acc;
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParserCasts(t *testing.T) {
	f, err := Parse(`long f(char c) { return (long)(unsigned char)c; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Funcs[0].Body.List[0].(*ReturnStmt)
	outer, ok := ret.X.(*CastExpr)
	if !ok || outer.To.Kind != CLong {
		t.Fatalf("outer cast wrong: %#v", ret.X)
	}
	if inner, ok := outer.X.(*CastExpr); !ok || inner.To.Kind != CUChar {
		t.Fatalf("inner cast wrong: %#v", outer.X)
	}
}

func TestParserErrors(t *testing.T) {
	for _, src := range []string{
		"int f( { }",
		"int f(void) { return }",
		"int f(void) { if }",
		"int f(void) { break; }", // handled by frontend, parses fine
		"int 3x;",
		"blah",
		"int f(void) { x = ; }",
		"int f(void) { for (;; }",
	} {
		_, err := Parse(src)
		if src == "int f(void) { break; }" {
			if err != nil {
				t.Errorf("%q should parse (frontend rejects it)", src)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestParserErrorPositions(t *testing.T) {
	_, err := Parse("int f(void) {\n\treturn $;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q should point at line 2", err)
	}
}

// TestFuncDeclCalls: the parser records each body's callee names, nested
// calls and calls in nested blocks included, and none for a prototype.
func TestFuncDeclCalls(t *testing.T) {
	f, err := Parse(`
int g(int x);
int f(int x) {
	if (a(b(x))) { while (c()) { x = x + a(1); } }
	return x;
}
int h(void) { return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"g": "", "f": "a b c a", "h": ""}
	for _, fn := range f.Funcs {
		if got := strings.Join(fn.Calls, " "); got != want[fn.Name] {
			t.Errorf("%s calls %q, want %q", fn.Name, got, want[fn.Name])
		}
	}
}
