package lang

import (
	"strings"
	"testing"

	"overify/internal/coreutils"
)

// keyBytes records what WriteKey writes, byte for byte.
type keyBytes struct{ b []byte }

func (k *keyBytes) WriteString(s string) { k.b = append(k.b, s...) }

func (k *keyBytes) WriteUint64(v uint64) {
	for i := 0; i < 8; i++ {
		k.b = append(k.b, byte(v>>(8*i)))
	}
}

// tokenKey is src's token key, or ok=false when src does not lex.
func tokenKey(src string) (key string, ok bool) {
	var k keyBytes
	if err := WriteKey(&k, src); err != nil {
		return "", false
	}
	return string(k.b), true
}

// layoutEdits are what FuzzLexParse inserts between two tokens. Each
// is padded with a space, so that it never joins the token before it
// (a '/' followed by "/* c */" would open a line comment).
var layoutEdits = []string{" /* c */ ", "\n// c\n", "\n"}

// FuzzLexParse: lexing and parsing never panic, and layout is invisible
// to both. Inserting a block comment, a line comment or a newline
// between two tokens changes neither the token key nor whether Parse
// succeeds. Insertions land after the last assert, whose position the
// key carries because lowering writes it into the assert's check.
func FuzzLexParse(f *testing.F) {
	for _, name := range []string{"wc", "echo", "basename", "tr", "printf"} {
		p, _ := coreutils.Get(name)
		f.Add(p.Src, uint(7), uint8(0))
	}
	f.Add("int umain(unsigned char *s, int n) { assert(n > 0); return s[0] / 2; }", uint(20), uint8(1))
	f.Add(`char *g = "a\x41\n"; int f() { return 'q' + 0x1Fu; }`, uint(3), uint8(2))
	f.Add("int f() { return 1 / /* x */ 2; }", uint(5), uint8(0))
	f.Add("int f( { ", uint(1), uint8(1))
	f.Fuzz(func(t *testing.T, src string, at uint, which uint8) {
		_, parseErr := Parse(src)
		toks, err := Tokenize(src)
		key, ok := tokenKey(src)
		if (err == nil) != ok {
			t.Fatalf("Tokenize error %v, but WriteKey lexed=%v", err, ok)
		}
		if err != nil {
			return
		}
		first := 0 // the first token an insertion may precede
		for i, tok := range toks {
			if tok.Kind == KwAssert {
				first = i + 1
			}
		}
		if first >= len(toks) {
			return
		}
		tok := toks[first+int(at%uint(len(toks)-first))]
		off := offsetOf(src, tok.Pos)
		edited := src[:off] + layoutEdits[int(which)%len(layoutEdits)] + src[off:]

		editedKey, ok := tokenKey(edited)
		if !ok {
			t.Fatalf("inserting before %s at %s broke lexing:\n%s", tok.Kind, tok.Pos, edited)
		}
		if editedKey != key {
			t.Errorf("inserting before %s at %s moved the token key:\n%s", tok.Kind, tok.Pos, edited)
		}
		if _, err := Parse(edited); (err == nil) != (parseErr == nil) {
			t.Errorf("inserting before %s at %s changed whether Parse succeeds (%v, now %v):\n%s",
				tok.Kind, tok.Pos, parseErr, err, edited)
		}
	})
}

// offsetOf is the byte offset of pos in src; the lexer counts columns
// in bytes.
func offsetOf(src string, pos Pos) int {
	off := 0
	for line := 1; line < pos.Line; line++ {
		off += strings.IndexByte(src[off:], '\n') + 1
	}
	return off + pos.Col - 1
}

// keyLen counts what WriteKey writes and keeps none of it.
type keyLen int

func (k *keyLen) WriteString(s string) { *k += keyLen(len(s)) }
func (k *keyLen) WriteUint64(uint64)   { *k += 8 }

// TestWriteKeyAllocatesNothing: keying a source lexes it in place, so
// keying any corpus program allocates nothing.
func TestWriteKeyAllocatesNothing(t *testing.T) {
	var k keyLen
	for _, p := range coreutils.All() {
		if n := testing.AllocsPerRun(5, func() { _ = WriteKey(&k, p.Src) }); n != 0 {
			t.Errorf("%s: keying allocates %.0f times", p.Name, n)
		}
	}
}
