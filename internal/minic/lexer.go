package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// LexError is a lexical error with a source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer converts MiniC source text into tokens. It runs a minimal
// preprocessor first: #include lines are dropped (builtins are always in
// scope), object-like #define macros are expanded, and #undef is honored.
type Lexer struct {
	src       string
	file      string
	off       int
	line      int
	col       int
	macros    map[string][]Token // object-like macros, pre-lexed bodies
	names     nameSet            // filters identifiers before a macros lookup
	queue     []Token            // pending expanded macro tokens
	expanding map[string]bool    // macro names currently being expanded
}

// NewLexer returns a lexer for src. file is used in positions.
func NewLexer(file, src string) (*Lexer, error) {
	lx := &Lexer{
		file:      file,
		line:      1,
		col:       1,
		macros:    map[string][]Token{},
		expanding: map[string]bool{},
	}
	pre, err := lx.preprocess(src)
	if err != nil {
		return nil, err
	}
	lx.src = pre
	lx.predefine()
	return lx, nil
}

// predefine installs the handful of macros that <math.h>/<stdlib.h> would
// normally supply and that the benchmark corpus uses.
func (lx *Lexer) predefine() {
	def := func(name string, toks ...Token) {
		if _, exists := lx.macros[name]; !exists {
			lx.macros[name] = toks
			lx.names.add(name)
		}
	}
	def("M_PI", Token{Kind: FloatLit, Text: "3.14159265358979323846", FloatVal: 3.14159265358979323846})
	def("M_PI_2", Token{Kind: FloatLit, Text: "1.57079632679489661923", FloatVal: 1.57079632679489661923})
	def("M_SQRT2", Token{Kind: FloatLit, Text: "1.41421356237309504880", FloatVal: 1.41421356237309504880})
	def("NULL", Token{Kind: IntLit, Text: "0", IntVal: 0})
	def("true", Token{Kind: IntLit, Text: "1", IntVal: 1})
	def("false", Token{Kind: IntLit, Text: "0", IntVal: 0})
	def("bool", Token{Kind: KwInt, Text: "int"})
	// <complex.h> spells the imaginary unit "I".
	def("I", Token{Kind: Ident, Text: "__I__"})
}

// preprocess strips comments, handles #include/#define/#undef/#ifdef-less
// directives, and returns the remaining source. Line structure is
// preserved so token positions stay accurate.
func (lx *Lexer) preprocess(src string) (string, error) {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	var out strings.Builder
	out.Grow(len(src))
	lines := strings.Split(src, "\n")
	inBlockComment := false
	for i, raw := range lines {
		line := raw
		if inBlockComment {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.Repeat(" ", idx+2) + line[idx+2:]
				inBlockComment = false
			} else {
				out.WriteString("\n")
				continue
			}
		}
		// Strip comments while respecting string literals.
		line, inBlockComment = stripComments(line)
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			if err := lx.directive(trimmed, i+1); err != nil {
				return "", err
			}
			out.WriteString("\n")
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.String(), nil
}

// stripComments removes // and /* */ comments from a single line, replacing
// them with spaces. Returns the cleaned line and whether a block comment
// remains open at end of line.
func stripComments(line string) (string, bool) {
	if strings.IndexByte(line, '/') < 0 {
		return line, false
	}
	var b strings.Builder
	inStr := false
	inChar := false
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case inStr:
			b.WriteByte(c)
			if c == '\\' && i+1 < len(line) {
				b.WriteByte(line[i+1])
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			b.WriteByte(c)
			if c == '\\' && i+1 < len(line) {
				b.WriteByte(line[i+1])
				i++
			} else if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
			b.WriteByte(c)
		case c == '\'':
			inChar = true
			b.WriteByte(c)
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			b.WriteString(strings.Repeat(" ", len(line)-i))
			return b.String(), false
		case c == '/' && i+1 < len(line) && line[i+1] == '*':
			if end := strings.Index(line[i+2:], "*/"); end >= 0 {
				n := end + 4 // "/*" + body + "*/"
				b.WriteString(strings.Repeat(" ", n))
				i += n
				continue
			}
			b.WriteString(strings.Repeat(" ", len(line)-i))
			return b.String(), true
		default:
			b.WriteByte(c)
		}
		i++
	}
	return b.String(), false
}

// directive handles a single preprocessor line.
func (lx *Lexer) directive(line string, lineno int) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	name := strings.TrimPrefix(fields[0], "#")
	if name == "" && len(fields) > 1 {
		name = fields[1]
		fields = fields[1:]
	}
	switch name {
	case "include", "pragma", "ifdef", "ifndef", "endif", "else", "if", "elif", "error", "":
		return nil // ignored; conditional bodies are kept
	case "undef":
		if len(fields) >= 2 {
			delete(lx.macros, fields[1])
		}
		return nil
	case "define":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "define"))
		if rest == "" {
			return nil
		}
		// Split macro name from body.
		end := 0
		for end < len(rest) && (isIdentChar(rest[end]) || (end == 0 && isIdentStart(rest[end]))) {
			end++
		}
		mname := rest[:end]
		if mname == "" {
			return &LexError{Pos: Pos{File: lx.file, Line: lineno, Col: 1}, Msg: "malformed #define"}
		}
		if end < len(rest) && rest[end] == '(' {
			// Function-like macros are out of scope for MiniC; the
			// benchmark corpus does not use them.
			return &LexError{Pos: Pos{File: lx.file, Line: lineno, Col: 1},
				Msg: fmt.Sprintf("function-like macro %q not supported by MiniC", mname)}
		}
		body := strings.TrimSpace(rest[end:])
		sub, err := lexAll(lx.file, body)
		if err != nil {
			return err
		}
		lx.macros[mname] = sub
		lx.names.add(mname)
		return nil
	default:
		return nil
	}
}

// lexAll tokenizes a macro body with a bare sub-lexer (no preprocessing).
func lexAll(file, body string) ([]Token, error) {
	sub := &Lexer{src: body, file: file, line: 1, col: 1,
		macros: map[string][]Token{}, expanding: map[string]bool{}}
	var toks []Token
	for {
		var t Token
		if err := sub.rawNext(&t); err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, expanding macros.
func (lx *Lexer) Next() (Token, error) {
	var t Token
	err := lx.next(&t)
	return t, err
}

// next lexes the next token into *t, expanding macros.
func (lx *Lexer) next(t *Token) error {
	if len(lx.queue) > 0 {
		*t = lx.queue[0]
		lx.queue = lx.queue[1:]
		return nil
	}
	if err := lx.rawNext(t); err != nil {
		return err
	}
	if t.Kind == Ident {
		if body, ok := lx.macro(t.Text); ok && !lx.expanding[t.Text] {
			// Re-expand macro bodies (one level of nesting protection).
			lx.expanding[t.Text] = true
			var expanded []Token
			for _, bt := range body {
				bt.Pos = t.Pos
				if bt.Kind == Ident {
					if inner, ok := lx.macro(bt.Text); ok && !lx.expanding[bt.Text] {
						for _, it := range inner {
							it.Pos = t.Pos
							expanded = append(expanded, it)
						}
						continue
					}
				}
				expanded = append(expanded, bt)
			}
			delete(lx.expanding, t.Text)
			if len(expanded) == 0 {
				*t = Token{}
				return lx.next(t)
			}
			lx.queue = append(expanded[1:], lx.queue...)
			*t = expanded[0]
		}
	}
	return nil
}

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekByteAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
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

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

// rawNext lexes one token into *t, which must be zero, with no macro
// expansion.
func (lx *Lexer) rawNext(t *Token) error {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			lx.advance()
			continue
		}
		break
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		*t = Token{Kind: EOF, Pos: start}
		return nil
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		lx.lexIdent(t, start)
		return nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekByteAt(1))):
		return lx.lexNumber(t, start)
	case c == '"':
		return lx.lexString(t, start)
	case c == '\'':
		return lx.lexChar(t, start)
	default:
		return lx.lexOperator(t, start)
	}
}

func (lx *Lexer) lexIdent(t *Token, start Pos) {
	begin := lx.off
	for lx.off < len(lx.src) && isIdentChar(lx.src[lx.off]) {
		lx.advance()
	}
	t.Kind, t.Text, t.Pos = Ident, lx.src[begin:lx.off], start
	if keywordNames.mayHave(t.Text) {
		if kw, ok := keywords[t.Text]; ok {
			t.Kind = kw
		}
	}
}

// macro returns the body of the object-like macro name, if one is defined.
func (lx *Lexer) macro(name string) ([]Token, bool) {
	if !lx.names.mayHave(name) {
		return nil, false
	}
	body, ok := lx.macros[name]
	return body, ok
}

// nameSet filters identifiers by first byte and length: mayHave reports
// every added name, and some others, so a map lookup behind it can be
// skipped for most identifiers. The low six bits of a first byte keep
// the letters of either case and '_' apart; a collision costs a lookup.
type nameSet [64]uint64

func (s *nameSet) add(name string) { s[name[0]&63] |= 1 << min(len(name), 63) }

func (s *nameSet) mayHave(name string) bool { return s[name[0]&63]&(1<<min(len(name), 63)) != 0 }

var keywordNames = func() (s nameSet) {
	for name := range keywords {
		s.add(name)
	}
	return
}()

func (lx *Lexer) lexNumber(t *Token, start Pos) error {
	begin := lx.off
	isFloat := false
	if lx.peekByte() == '0' && (lx.peekByteAt(1) == 'x' || lx.peekByteAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHex(lx.src[lx.off]) {
			lx.advance()
		}
		text := lx.src[begin:lx.off]
		lx.skipIntSuffix()
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return &LexError{Pos: start, Msg: "malformed hex literal " + text}
		}
		*t = Token{Kind: IntLit, Text: text, Pos: start, IntVal: int64(v)}
		return nil
	}
	for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
		lx.advance()
	}
	if lx.peekByte() == '.' {
		isFloat = true
		lx.advance()
		for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
			lx.advance()
		}
	}
	if e := lx.peekByte(); e == 'e' || e == 'E' {
		next := lx.peekByteAt(1)
		next2 := lx.peekByteAt(2)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(next2)) {
			isFloat = true
			lx.advance()
			if s := lx.peekByte(); s == '+' || s == '-' {
				lx.advance()
			}
			for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
				lx.advance()
			}
		}
	}
	text := lx.src[begin:lx.off]
	f32 := false
	if s := lx.peekByte(); s == 'f' || s == 'F' {
		isFloat = true
		f32 = true
		lx.advance()
	} else {
		lx.skipIntSuffix()
	}
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return &LexError{Pos: start, Msg: "malformed float literal " + text}
		}
		*t = Token{Kind: FloatLit, Text: text, Pos: start, FloatVal: v, IsFloat32Lit: f32}
		return nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return &LexError{Pos: start, Msg: "malformed integer literal " + text}
	}
	*t = Token{Kind: IntLit, Text: text, Pos: start, IntVal: v}
	return nil
}

func (lx *Lexer) skipIntSuffix() {
	for {
		c := lx.peekByte()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			lx.advance()
			continue
		}
		return
	}
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *Lexer) lexString(t *Token, start Pos) error {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return &LexError{Pos: start, Msg: "unterminated string literal"}
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return &LexError{Pos: start, Msg: "unterminated escape in string"}
			}
			e := lx.advance()
			b.WriteByte(unescape(e))
			continue
		}
		b.WriteByte(c)
	}
	*t = Token{Kind: StringLit, Text: b.String(), Pos: start}
	return nil
}

func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	default:
		return e
	}
}

func (lx *Lexer) lexChar(t *Token, start Pos) error {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return &LexError{Pos: start, Msg: "unterminated char literal"}
	}
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			return &LexError{Pos: start, Msg: "unterminated char literal"}
		}
		c = unescape(lx.advance())
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return &LexError{Pos: start, Msg: "unterminated char literal"}
	}
	*t = Token{Kind: CharLit, Text: string(c), Pos: start, IntVal: int64(c)}
	return nil
}

// lexOperator lexes punctuation with maximal munch.
func (lx *Lexer) lexOperator(t *Token, start Pos) error {
	rest := lx.src[lx.off:]
	if len(rest) >= 3 && (rest[0] == '.' || rest[2] == '=') {
		if k, ok := threeCharOps[rest[:3]]; ok {
			lx.off += 3
			lx.col += 3
			t.Kind, t.Text, t.Pos = k, rest[:3], start
			return nil
		}
	}
	if len(rest) >= 2 && opSecond[rest[1]] {
		if k, ok := twoCharOps[rest[:2]]; ok {
			lx.off += 2
			lx.col += 2
			t.Kind, t.Text, t.Pos = k, rest[:2], start
			return nil
		}
	}
	c := lx.advance()
	if k := oneCharKind[c]; k != EOF {
		t.Kind, t.Text, t.Pos = k, rest[:1], start
		return nil
	}
	return &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
}

var threeCharOps = map[string]Kind{"...": Ellipsis, "<<=": ShlAssign, ">>=": ShrAssign}

var twoCharOps = map[string]Kind{
	"->": Arrow, "++": PlusPlus, "--": MinusMinus, "<<": Shl, ">>": Shr,
	"<=": Le, ">=": Ge, "==": EqEq, "!=": NotEq, "&&": AndAnd, "||": OrOr,
	"+=": PlusAssign, "-=": MinusAssign, "*=": StarAssign, "/=": SlashAssign,
	"%=": PercentAssign, "&=": AmpAssign, "|=": PipeAssign, "^=": CaretAssign,
}

// oneCharKind maps each one-character operator byte to its kind (EOF for
// none).
var oneCharKind = [256]Kind{
	'(': LParen, ')': RParen, '{': LBrace, '}': RBrace, '[': LBracket,
	']': RBracket, ',': Comma, ';': Semi, ':': Colon, '?': Question,
	'.': Dot, '+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
	'&': Amp, '|': Pipe, '^': Caret, '~': Tilde, '!': Not, '=': Assign,
	'<': Lt, '>': Gt,
}

// opSecond marks the bytes that end a two-character operator, so most
// operators cost no map lookup.
var opSecond = func() (second [256]bool) {
	for op := range twoCharOps {
		second[op[1]] = true
	}
	return
}()

// Tokenize lexes the entire source and returns all tokens (excluding EOF).
// The returned slice has room for one more token.
func Tokenize(file, src string) ([]Token, error) {
	lx, err := NewLexer(file, src)
	if err != nil {
		return nil, err
	}
	// Every corpus source runs at least 2.9 preprocessed bytes per token,
	// so this allocates the slice once; a denser source grows it.
	toks := make([]Token, 0, len(lx.src)/3+16)
	for {
		toks = append(toks, Token{})
		t := &toks[len(toks)-1]
		if err := lx.next(t); err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return toks[:len(toks)-1], nil
		}
	}
}
