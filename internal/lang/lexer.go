package lang

import (
	"fmt"
	"strings"
)

// Lexer turns MiniC source text into a token stream.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Error is a front-end diagnostic with a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error formats the diagnostic.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (lx *Lexer) errf(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next lexes and returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: text}, nil

	case isDigit(c):
		return lx.lexNumber(pos)

	case c == '\'':
		return lx.lexChar(pos)

	case c == '"':
		return lx.lexString(pos)
	}

	// Operators and punctuation.
	two := func(k Kind) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	three := func(k Kind) (Token, error) {
		lx.advance()
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	one := func(k Kind) (Token, error) {
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	d := lx.peek2()
	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case '[':
		return one(LBracket)
	case ']':
		return one(RBracket)
	case ';':
		return one(Semi)
	case ',':
		return one(Comma)
	case '?':
		return one(Question)
	case ':':
		return one(Colon)
	case '~':
		return one(Tilde)
	case '+':
		if d == '+' {
			return two(Inc)
		}
		if d == '=' {
			return two(PlusAssign)
		}
		return one(Plus)
	case '-':
		if d == '-' {
			return two(Dec)
		}
		if d == '=' {
			return two(MinusAssign)
		}
		return one(Minus)
	case '*':
		if d == '=' {
			return two(StarAssign)
		}
		return one(Star)
	case '/':
		if d == '=' {
			return two(SlashAssign)
		}
		return one(Slash)
	case '%':
		if d == '=' {
			return two(PercentAssign)
		}
		return one(Percent)
	case '&':
		if d == '&' {
			return two(AndAnd)
		}
		if d == '=' {
			return two(AmpAssign)
		}
		return one(Amp)
	case '|':
		if d == '|' {
			return two(OrOr)
		}
		if d == '=' {
			return two(PipeAssign)
		}
		return one(Pipe)
	case '^':
		if d == '=' {
			return two(CaretAssign)
		}
		return one(Caret)
	case '!':
		if d == '=' {
			return two(Ne)
		}
		return one(Bang)
	case '=':
		if d == '=' {
			return two(Eq)
		}
		return one(Assign)
	case '<':
		if d == '<' {
			if lx.off+2 < len(lx.src) && lx.src[lx.off+2] == '=' {
				return three(ShlAssign)
			}
			return two(Shl)
		}
		if d == '=' {
			return two(Le)
		}
		return one(Lt)
	case '>':
		if d == '>' {
			if lx.off+2 < len(lx.src) && lx.src[lx.off+2] == '=' {
				return three(ShrAssign)
			}
			return two(Shr)
		}
		if d == '=' {
			return two(Ge)
		}
		return one(Gt)
	}
	return Token{}, lx.errf(pos, "unexpected character %q", string(c))
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	var val uint64
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		if !isHexDigit(lx.peek()) {
			return Token{}, lx.errf(pos, "malformed hex literal")
		}
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			c := lx.advance()
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			default:
				d = uint64(c-'A') + 10
			}
			val = val*16 + d
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			val = val*10 + uint64(lx.advance()-'0')
		}
	}
	// Accept (and ignore) C integer suffixes.
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			lx.advance()
		} else {
			break
		}
	}
	return Token{Kind: INTLIT, Pos: pos, Text: lx.src[start:lx.off], Val: val}, nil
}

func (lx *Lexer) escape(pos Pos) (byte, error) {
	if lx.off >= len(lx.src) {
		return 0, lx.errf(pos, "unterminated escape")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '\\', '\'', '"':
		return c, nil
	case 'x':
		var v uint64
		n := 0
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) && n < 2 {
			c := lx.advance()
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			default:
				d = uint64(c-'A') + 10
			}
			v = v*16 + d
			n++
		}
		if n == 0 {
			return 0, lx.errf(pos, "malformed \\x escape")
		}
		return byte(v), nil
	}
	return 0, lx.errf(pos, "unknown escape \\%s", string(c))
}

func (lx *Lexer) lexChar(pos Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return Token{}, lx.errf(pos, "unterminated char literal")
	}
	var v byte
	c := lx.advance()
	if c == '\\' {
		e, err := lx.escape(pos)
		if err != nil {
			return Token{}, err
		}
		v = e
	} else if c == '\'' {
		return Token{}, lx.errf(pos, "empty char literal")
	} else {
		v = c
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return Token{}, lx.errf(pos, "unterminated char literal")
	}
	return Token{Kind: CHARLIT, Pos: pos, Val: uint64(v)}, nil
}

// lexString decodes a string literal. One without escapes is its own
// decoding, so its Str is a slice of the source and lexing it allocates
// nothing.
func (lx *Lexer) lexString(pos Pos) (Token, error) {
	lx.advance() // opening quote
	start := lx.off
	var sb strings.Builder
	escaped := false
	for {
		if lx.off >= len(lx.src) {
			return Token{}, lx.errf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			return Token{}, lx.errf(pos, "newline in string literal")
		}
		if c == '\\' {
			if !escaped {
				sb.WriteString(lx.src[start : lx.off-1])
				escaped = true
			}
			e, err := lx.escape(pos)
			if err != nil {
				return Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		if escaped {
			sb.WriteByte(c)
		}
	}
	if !escaped {
		return Token{Kind: STRLIT, Pos: pos, Str: lx.src[start : lx.off-1]}, nil
	}
	return Token{Kind: STRLIT, Pos: pos, Str: sb.String()}, nil
}

// Tokenize lexes the entire input, returning all tokens including EOF.
func Tokenize(src string) ([]Token, error) { return tokenizeInto(nil, src) }

// tokenizeInto is Tokenize appending to buf[:0], whose array it reuses
// when it is large enough.
func tokenizeInto(buf []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	// MiniC runs 2 to 3.5 source bytes a token over the corpus and both
	// libc variants, so one slice of len/2 holds every token without
	// growing.
	toks := buf[:0]
	if n := len(src)/2 + 1; cap(toks) < n {
		toks = make([]Token, 0, n)
	}
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// KeyWriter absorbs the stream WriteKey writes; solver.Hasher is one.
type KeyWriter interface {
	WriteString(s string)
	WriteUint64(v uint64)
}

// WriteKey writes src's token stream to w as the compiler reads it:
// each token's kind, spelling (Text) and value (Val, or Str for a
// string literal), and no layout. Comments, whitespace and token
// positions never reach w, with one exception: an assert's position,
// which lowering writes into the message of the check it emits. Every
// string is length-prefixed, so two token streams write the same bytes
// only when they are the same stream. For a source that does not lex
// it returns the lexer's error, having written the tokens before it.
//
// It lexes in place and allocates nothing for a source whose string
// literals carry no escapes.
func WriteKey(w KeyWriter, src string) error {
	lx := Lexer{src: src, line: 1, col: 1}
	for {
		t, err := lx.Next()
		if err != nil {
			return err
		}
		w.WriteUint64(uint64(t.Kind) | uint64(len(t.Text))<<8)
		w.WriteString(t.Text)
		switch t.Kind {
		case EOF:
			return nil
		case INTLIT, CHARLIT:
			w.WriteUint64(t.Val)
		case STRLIT:
			w.WriteUint64(uint64(len(t.Str)))
			w.WriteString(t.Str)
		case KwAssert:
			w.WriteUint64(uint64(t.Pos.Line)<<32 | uint64(uint32(t.Pos.Col)))
		}
	}
}
