package minic

import (
	"fmt"
)

// ParseError is a syntax error with a source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser builds a File from tokens. It tracks typedef and struct names so
// declarations can be distinguished from expressions.
type Parser struct {
	toks     []Token // ends with an EOF token at the last token's position
	pos      int
	file     string
	typedefs map[string]*Type
	structs  map[string]*Type
	enums    map[string]int64
}

// noToken is what peek reads past the end of the input.
var noToken = Token{Kind: EOF}

// Parse parses a MiniC translation unit.
func Parse(file, src string) (*File, error) {
	toks, err := Tokenize(file, src)
	if err != nil {
		return nil, err
	}
	last := Pos{File: file, Line: 1, Col: 1}
	if len(toks) > 0 {
		last = toks[len(toks)-1].Pos
	}
	p := &Parser{
		toks:     append(toks, Token{Kind: EOF, Pos: last}),
		file:     file,
		typedefs: map[string]*Type{},
		structs:  map[string]*Type{},
		enums:    map[string]int64{},
	}
	return p.parseFile()
}

// Tokens are read in place: cur, peek and next return pointers into the
// token slice, which the parser never modifies.

func (p *Parser) cur() *Token { return &p.toks[p.pos] }

func (p *Parser) peek(n int) *Token {
	if p.pos+n >= len(p.toks)-1 {
		return &noToken
	}
	return &p.toks[p.pos+n]
}

func (p *Parser) next() *Token {
	t := &p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (*Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("expected %s, found %s", k, t)}
	}
	p.pos++
	return t, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ---- Top level ----

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().Kind != EOF {
		if p.accept(Semi) {
			continue
		}
		if err := p.parseTopLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (p *Parser) parseTopLevel(f *File) error {
	// typedef
	if p.cur().Kind == KwTypedef {
		td, err := p.parseTypedef()
		if err != nil {
			return err
		}
		f.Typedefs = append(f.Typedefs, td...)
		return nil
	}
	// enum definitions become integer constants
	if p.cur().Kind == KwEnum && (p.peek(1).Kind == LBrace || p.peek(2).Kind == LBrace) {
		return p.parseEnumDef()
	}
	// bare struct definition: struct Name { ... };
	if p.cur().Kind == KwStruct && p.peek(1).Kind == Ident && p.peek(2).Kind == LBrace {
		pos := p.cur().Pos
		st, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		if p.accept(Semi) {
			f.Structs = append(f.Structs, &StructDecl{Pos: pos, Name: st.StructName, Type: st})
			return nil
		}
		// struct Name { ... } var...; falls through to declarator list
		return p.finishDecl(f, pos, st, SCNone)
	}

	pos := p.cur().Pos
	storage := p.parseStorage()
	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	if p.accept(Semi) {
		if base.Kind == TStruct && base.StructName != "" {
			f.Structs = append(f.Structs, &StructDecl{Pos: pos, Name: base.StructName, Type: base})
		}
		return nil
	}
	return p.finishDecl(f, pos, base, storage)
}

// finishDecl parses declarators after the type specifier at top level and
// appends functions or globals to f.
func (p *Parser) finishDecl(f *File, pos Pos, base *Type, storage StorageClass) error {
	for {
		typ, name, err := p.parseDeclarator(base)
		if err != nil {
			return err
		}
		if name == "" {
			return p.errf("declaration requires a name")
		}
		if typ.Kind == TFunc {
			fn := &FuncDecl{Pos: pos, Name: name, Type: typ, Static: storage == SCStatic}
			for _, prm := range typ.Params {
				fn.Params = append(fn.Params, &VarDecl{
					Pos: pos, Name: prm.Name, Type: prm.Type, IsParam: true,
				})
			}
			if p.cur().Kind == LBrace {
				body, err := p.parseBlock()
				if err != nil {
					return err
				}
				fn.Body = body
				f.Funcs = append(f.Funcs, fn)
				return nil
			}
			// prototype
			f.Funcs = append(f.Funcs, fn)
			if p.accept(Comma) {
				continue
			}
			_, err := p.expect(Semi)
			return err
		}
		vd := &VarDecl{Pos: pos, Name: name, Type: typ, Storage: storage, Global: true}
		if p.accept(Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return err
			}
			vd.Init = init
		}
		f.Globals = append(f.Globals, vd)
		if p.accept(Comma) {
			continue
		}
		_, err = p.expect(Semi)
		return err
	}
}

func (p *Parser) parseStorage() StorageClass {
	sc := SCNone
	for {
		switch p.cur().Kind {
		case KwStatic:
			sc = SCStatic
			p.next()
		case KwExtern:
			sc = SCExtern
			p.next()
		case KwInline, KwConst, KwVolatile, KwRestrict:
			p.next()
		case Ident:
			if p.cur().Text == "__attribute__" {
				p.skipAttribute()
				continue
			}
			return sc
		default:
			return sc
		}
	}
}

// skipAttribute consumes "__attribute__ (( ... ))" (GCC syntax emitted by
// FACC's own backend for buffer alignment).
func (p *Parser) skipAttribute() {
	p.next() // __attribute__
	if p.cur().Kind != LParen {
		return
	}
	depth := 0
	for {
		switch p.next().Kind {
		case LParen:
			depth++
		case RParen:
			depth--
			if depth == 0 {
				return
			}
		case EOF:
			return
		}
	}
}

func (p *Parser) parseTypedef() ([]*TypedefDecl, error) {
	pos := p.cur().Pos
	p.next() // typedef
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	var out []*TypedefDecl
	for {
		typ, name, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("typedef requires a name")
		}
		// An anonymous struct typedef adopts the typedef name so values
		// print and compare usefully.
		if typ.Kind == TStruct && typ.StructName == "" {
			typ.StructName = name
			typ.FromTypedef = true
			p.structs[name] = typ
		}
		// "typedef struct tag {...} tag;" also makes the bare name valid.
		if typ.Kind == TStruct && typ.StructName == name {
			typ.FromTypedef = true
		}
		p.typedefs[name] = typ
		out = append(out, &TypedefDecl{Pos: pos, Name: name, Type: typ})
		if p.accept(Comma) {
			continue
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *Parser) parseEnumDef() error {
	p.next() // enum
	if p.cur().Kind == Ident {
		p.next()
	}
	if _, err := p.expect(LBrace); err != nil {
		return err
	}
	val := int64(0)
	for p.cur().Kind != RBrace {
		nameTok, err := p.expect(Ident)
		if err != nil {
			return err
		}
		if p.accept(Assign) {
			e, err := p.parseAssignExpr()
			if err != nil {
				return err
			}
			v, ok := evalConstInt(e)
			if !ok {
				return p.errf("enum value must be a constant expression")
			}
			val = v
		}
		p.enums[nameTok.Text] = val
		val++
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return err
	}
	_, err := p.expect(Semi)
	return err
}

// ---- Types ----

// isTypeStart reports whether the current token begins a type specifier.
func (p *Parser) isTypeStart() bool {
	switch p.cur().Kind {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwComplex, KwStruct, KwUnion, KwEnum,
		KwConst, KwVolatile, KwStatic, KwExtern, KwTypedef, KwRestrict:
		return true
	case Ident:
		if p.cur().Text == "__attribute__" {
			return true
		}
		_, ok := p.typedefs[p.cur().Text]
		return ok
	default:
		return false
	}
}

// parseTypeSpec parses declaration specifiers: a combination of base-type
// keywords, struct/union specifiers, or a typedef name.
func (p *Parser) parseTypeSpec() (*Type, error) {
	var (
		sawVoid, sawChar, sawShort, sawInt, sawFloat, sawDouble bool
		sawComplex, sawUnsigned                                 bool
		longCount                                               int
		sawAny                                                  bool
	)
	var named *Type
	for {
		t := p.cur()
		switch t.Kind {
		case KwConst, KwVolatile, KwRestrict, KwStatic, KwExtern, KwInline:
			p.next()
			continue
		case KwVoid:
			sawVoid, sawAny = true, true
		case KwChar:
			sawChar, sawAny = true, true
		case KwShort:
			sawShort, sawAny = true, true
		case KwInt:
			sawInt, sawAny = true, true
		case KwLong:
			longCount++
			sawAny = true
		case KwFloat:
			sawFloat, sawAny = true, true
		case KwDouble:
			sawDouble, sawAny = true, true
		case KwSigned:
			sawAny = true
		case KwUnsigned:
			sawUnsigned, sawAny = true, true
		case KwComplex:
			sawComplex, sawAny = true, true
		case KwStruct, KwUnion:
			st, err := p.parseStructSpec()
			if err != nil {
				return nil, err
			}
			named = st
			sawAny = true
		case KwEnum:
			p.next()
			if p.cur().Kind == Ident {
				p.next()
			}
			return Int, nil
		case Ident:
			if td, ok := p.typedefs[t.Text]; ok && !sawAny {
				p.next()
				// allow "typedefname complex"? no — return typedef directly.
				return td, nil
			}
			goto done
		default:
			goto done
		}
		if t.Kind != KwStruct && t.Kind != KwUnion {
			p.next()
		}
	}
done:
	if named != nil {
		return named, nil
	}
	if !sawAny {
		return nil, p.errf("expected type specifier, found %s", p.cur())
	}
	switch {
	case sawComplex && (sawDouble || longCount > 0):
		return ComplexDouble, nil
	case sawComplex && sawFloat:
		return ComplexFloat, nil
	case sawComplex:
		return ComplexDouble, nil
	case sawVoid:
		return Void, nil
	case sawDouble:
		return Double, nil
	case sawFloat:
		return Float, nil
	case sawChar:
		if sawUnsigned {
			return &Type{Kind: TChar, Unsigned: true}, nil
		}
		return Char, nil
	case longCount > 0:
		if sawUnsigned {
			return ULong, nil
		}
		return Long, nil
	case sawShort, sawInt:
		if sawUnsigned {
			return UInt, nil
		}
		return Int, nil
	case sawUnsigned:
		return UInt, nil
	default:
		return Int, nil
	}
}

// parseStructSpec parses "struct [name] [{ fields }]".
func (p *Parser) parseStructSpec() (*Type, error) {
	p.next() // struct / union
	name := ""
	if p.cur().Kind == Ident {
		name = p.next().Text
	}
	if p.cur().Kind != LBrace {
		if name == "" {
			return nil, p.errf("anonymous struct requires a body")
		}
		if st, ok := p.structs[name]; ok {
			return st, nil
		}
		// Forward reference: create an empty shell, fields filled later.
		st := &Type{Kind: TStruct, StructName: name}
		p.structs[name] = st
		return st, nil
	}
	p.next() // {
	st := p.structs[name]
	if st == nil {
		st = &Type{Kind: TStruct, StructName: name}
		if name != "" {
			p.structs[name] = st
		}
	}
	st.Fields = nil
	for p.cur().Kind != RBrace {
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for {
			ft, fname, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if fname == "" {
				return nil, p.errf("struct field requires a name")
			}
			st.Fields = append(st.Fields, Field{Name: fname, Type: ft})
			if p.accept(Comma) {
				continue
			}
			break
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return st, nil
}

// parseDeclarator parses pointer stars, a (possibly absent) name, and
// array/function suffixes. Returns the full type and the declared name.
func (p *Parser) parseDeclarator(base *Type) (*Type, string, error) {
	typ := base
	for p.accept(Star) {
		typ = PointerTo(typ)
		for p.cur().Kind == KwConst || p.cur().Kind == KwVolatile || p.cur().Kind == KwRestrict {
			p.next()
		}
	}
	name := ""
	// Parenthesized declarators ("(*f)(...)") — support the common
	// function-pointer shape by treating it as a void* (MiniC does not
	// call through function pointers).
	if p.cur().Kind == LParen && p.peek(1).Kind == Star {
		p.next()
		p.next()
		if p.cur().Kind == Ident {
			name = p.next().Text
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, "", err
		}
		if p.cur().Kind == LParen {
			if err := p.skipParens(); err != nil {
				return nil, "", err
			}
		}
		return PointerTo(Void), name, nil
	}
	if p.cur().Kind == Ident {
		name = p.next().Text
	}
	return p.parseDeclaratorSuffix(typ, name)
}

func (p *Parser) skipParens() error {
	if _, err := p.expect(LParen); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		switch p.next().Kind {
		case LParen:
			depth++
		case RParen:
			depth--
		case EOF:
			return p.errf("unbalanced parentheses")
		}
	}
	return nil
}

func (p *Parser) parseDeclaratorSuffix(typ *Type, name string) (*Type, string, error) {
	switch p.cur().Kind {
	case LParen:
		// function declarator
		p.next()
		ft := &Type{Kind: TFunc, Ret: typ}
		if p.cur().Kind == KwVoid && p.peek(1).Kind == RParen {
			p.next()
		}
		for p.cur().Kind != RParen {
			if p.accept(Ellipsis) {
				ft.Variadic = true
				break
			}
			pbase, err := p.parseTypeSpec()
			if err != nil {
				return nil, "", err
			}
			ptyp, pname, err := p.parseDeclarator(pbase)
			if err != nil {
				return nil, "", err
			}
			// Parameter arrays decay to pointers.
			if ptyp.Kind == TArray {
				ptyp = PointerTo(ptyp.Elem)
			}
			ft.Params = append(ft.Params, Param{Name: pname, Type: ptyp})
			if !p.accept(Comma) {
				break
			}
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, "", err
		}
		return ft, name, nil
	case LBracket:
		// array declarator; collect dimensions then build inside-out
		var dims []Expr
		for p.accept(LBracket) {
			if p.accept(RBracket) {
				dims = append(dims, nil)
				continue
			}
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, "", err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, "", err
			}
			dims = append(dims, e)
		}
		for i := len(dims) - 1; i >= 0; i-- {
			d := dims[i]
			if d == nil {
				typ = IncompleteArrayOf(typ)
				continue
			}
			if n, ok := evalConstInt(d); ok {
				typ = ArrayOf(typ, int(n))
			} else {
				typ = VLAOf(typ, d)
			}
		}
		return typ, name, nil
	default:
		return typ, name, nil
	}
}

// evalConstInt folds an integer constant expression at parse time. Enum
// constants are folded by the lexer/parser pipeline before this runs.
func evalConstInt(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLitExpr:
		return x.Value, true
	case *UnaryExpr:
		v, ok := evalConstInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case Minus:
			return -v, true
		case Plus:
			return v, true
		case Tilde:
			return ^v, true
		case Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *BinaryExpr:
		l, ok := evalConstInt(x.L)
		if !ok {
			return 0, false
		}
		r, ok := evalConstInt(x.R)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case Plus:
			return l + r, true
		case Minus:
			return l - r, true
		case Star:
			return l * r, true
		case Slash:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case Percent:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case Shl:
			return l << uint(r), true
		case Shr:
			return l >> uint(r), true
		case Amp:
			return l & r, true
		case Pipe:
			return l | r, true
		case Caret:
			return l ^ r, true
		}
		return 0, false
	case *CastExpr:
		return evalConstInt(x.X)
	case *SizeofExpr:
		if x.OfType != nil {
			if s := x.OfType.Sizeof(); s > 0 {
				return int64(s), true
			}
		}
		return 0, false
	default:
		return 0, false
	}
}

// ---- Statements ----

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{stmtBase: stmtBase{Pos: lb.Pos}}
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.List = append(blk.List, s)
		}
	}
	p.next() // }
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case Semi:
		p.next()
		return nil, nil
	case LBrace:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwFor:
		return p.parseFor()
	case KwWhile:
		return p.parseWhile()
	case KwDo:
		return p.parseDoWhile()
	case KwSwitch:
		return p.parseSwitch()
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
	case KwReturn:
		p.next()
		rs := &ReturnStmt{stmtBase: stmtBase{Pos: t.Pos}}
		if p.cur().Kind != Semi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = e
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return rs, nil
	case KwGoto:
		return nil, p.errf("goto is not supported by MiniC")
	case KwTypedef:
		tds, err := p.parseTypedef()
		if err != nil {
			return nil, err
		}
		_ = tds
		return nil, nil
	default:
		if p.isTypeStart() {
			return p.parseDeclStmt()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtBase{Pos: t.Pos}, e}, nil
	}
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	pos := p.cur().Pos
	storage := p.parseStorage()
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{stmtBase: stmtBase{Pos: pos}}
	for {
		typ, name, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("declaration requires a name")
		}
		vd := &VarDecl{Pos: pos, Name: name, Type: typ, Storage: storage}
		if p.accept(Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		ds.Decls = append(ds.Decls, vd)
		if p.accept(Comma) {
			continue
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return ds, nil
	}
}

func (p *Parser) parseInitializer() (Expr, error) {
	if p.cur().Kind == LBrace {
		lb := p.next()
		il := &InitListExpr{exprBase: exprBase{Pos: lb.Pos}}
		for p.cur().Kind != RBrace {
			item, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			il.Items = append(il.Items, item)
			if !p.accept(Comma) {
				break
			}
		}
		if _, err := p.expect(RBrace); err != nil {
			return nil, err
		}
		return il, nil
	}
	return p.parseAssignExpr()
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
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
	if then == nil {
		then = &BlockStmt{stmtBase: stmtBase{Pos: t.Pos}}
	}
	is := &IfStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Then: then}
	if p.accept(KwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		is.Else = els
	}
	return is, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{stmtBase: stmtBase{Pos: t.Pos}}
	if !p.accept(Semi) {
		if p.isTypeStart() {
			init, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			fs.Init = init
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ExprStmt{stmtBase{Pos: e.NodePos()}, e}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(Semi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	if p.cur().Kind != RParen {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if body == nil {
		body = &BlockStmt{stmtBase: stmtBase{Pos: t.Pos}}
	}
	fs.Body = body
	return fs, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
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
	if body == nil {
		body = &BlockStmt{stmtBase: stmtBase{Pos: t.Pos}}
	}
	return &WhileStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Body: body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	t := p.next() // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if body == nil {
		body = &BlockStmt{stmtBase: stmtBase{Pos: t.Pos}}
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
	return &WhileStmt{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Body: body, Do: true}, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	t := p.next() // switch
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{stmtBase: stmtBase{Pos: t.Pos}, Tag: tag}
	var cc *CaseClause
	for p.cur().Kind != RBrace {
		switch p.cur().Kind {
		case KwCase:
			cp := p.next().Pos
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			cc = &CaseClause{Pos: cp, Value: v}
			sw.Cases = append(sw.Cases, cc)
		case KwDefault:
			cp := p.next().Pos
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			cc = &CaseClause{Pos: cp, IsDefault: true}
			sw.Cases = append(sw.Cases, cc)
		case EOF:
			return nil, p.errf("unterminated switch")
		default:
			if cc == nil {
				return nil, p.errf("statement before first case in switch")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				cc.Body = append(cc.Body, s)
			}
		}
	}
	p.next() // }
	return sw, nil
}

// ---- Expressions (precedence climbing) ----

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == Comma {
		pos := p.next().Pos
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		e = &CommaExpr{exprBase{Pos: pos}, e, r}
	}
	return e, nil
}

var assignOps = map[Kind]bool{
	Assign: true, PlusAssign: true, MinusAssign: true, StarAssign: true,
	SlashAssign: true, PercentAssign: true, AmpAssign: true, PipeAssign: true,
	CaretAssign: true, ShlAssign: true, ShrAssign: true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	l, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Kind] {
		op := p.next()
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{exprBase{Pos: op.Pos}, op.Kind, l, r}, nil
	}
	return l, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	cond, err := p.parseBinaryExpr(1)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == Question {
		qp := p.next().Pos
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		els, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{exprBase{Pos: qp}, cond, then, els}, nil
	}
	return cond, nil
}

// binPrec returns the precedence of binary operators; 0 means not binary.
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
	case EqEq, NotEq:
		return 6
	case Lt, Gt, Le, Ge:
		return 7
	case Shl, Shr:
		return 8
	case Plus, Minus:
		return 9
	case Star, Slash, Percent:
		return 10
	default:
		return 0
	}
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	l, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec == 0 || prec < minPrec {
			return l, nil
		}
		op := p.next()
		r, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase{Pos: op.Pos}, op.Kind, l, r}
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Plus, Minus, Not, Tilde, Star, Amp:
		p.next()
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}, nil
	case PlusPlus, MinusMinus:
		p.next()
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: x}, nil
	case KwSizeof:
		p.next()
		if p.cur().Kind == LParen && p.typeStartAt(1) {
			p.next() // (
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return &SizeofExpr{exprBase: exprBase{Pos: t.Pos}, OfType: typ}, nil
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{exprBase: exprBase{Pos: t.Pos}, X: x}, nil
	case LParen:
		if p.typeStartAt(1) {
			// Cast expression.
			p.next() // (
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			return &CastExpr{exprBase: exprBase{Pos: t.Pos}, To: typ, X: x}, nil
		}
		return p.parsePostfixExpr()
	default:
		return p.parsePostfixExpr()
	}
}

// typeStartAt reports whether the token at offset n begins a type.
func (p *Parser) typeStartAt(n int) bool {
	t := p.peek(n)
	switch t.Kind {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwComplex, KwStruct, KwUnion, KwEnum, KwConst:
		return true
	case Ident:
		_, ok := p.typedefs[t.Text]
		return ok
	default:
		return false
	}
}

// parseTypeName parses an abstract type name (type-spec plus abstract
// declarator) as used in casts and sizeof.
func (p *Parser) parseTypeName() (*Type, error) {
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	typ := base
	for p.accept(Star) {
		typ = PointerTo(typ)
		for p.cur().Kind == KwConst || p.cur().Kind == KwVolatile || p.cur().Kind == KwRestrict {
			p.next()
		}
	}
	for p.accept(LBracket) {
		if p.accept(RBracket) {
			typ = IncompleteArrayOf(typ)
			continue
		}
		e, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		if n, ok := evalConstInt(e); ok {
			typ = ArrayOf(typ, int(n))
		} else {
			typ = VLAOf(typ, e)
		}
	}
	return typ, nil
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	e, err := p.parsePrimaryExpr()
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
			e = &IndexExpr{exprBase{Pos: t.Pos}, e, idx}
		case LParen:
			p.next()
			call := &CallExpr{exprBase: exprBase{Pos: t.Pos}, Fun: e}
			for p.cur().Kind != RParen {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			e = call
		case Dot:
			p.next()
			nameTok, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			e = &MemberExpr{exprBase: exprBase{Pos: t.Pos}, X: e, Name: nameTok.Text}
		case Arrow:
			p.next()
			nameTok, err := p.expect(Ident)
			if err != nil {
				return nil, err
			}
			e = &MemberExpr{exprBase: exprBase{Pos: t.Pos}, X: e, Name: nameTok.Text, Arrow: true}
		case PlusPlus, MinusMinus:
			p.next()
			e = &UnaryExpr{exprBase: exprBase{Pos: t.Pos}, Op: t.Kind, X: e, Post: true}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case IntLit, CharLit:
		p.next()
		return &IntLitExpr{exprBase{Pos: t.Pos}, t.IntVal}, nil
	case FloatLit:
		p.next()
		return &FloatLitExpr{exprBase{Pos: t.Pos}, t.FloatVal, t.IsFloat32Lit}, nil
	case StringLit:
		p.next()
		return &StringLitExpr{exprBase{Pos: t.Pos}, t.Text}, nil
	case Ident:
		p.next()
		if t.Text == "__I__" {
			return &ImaginaryLitExpr{exprBase{Pos: t.Pos, Type: nil}}, nil
		}
		if v, ok := p.enums[t.Text]; ok {
			return &IntLitExpr{exprBase{Pos: t.Pos}, v}, nil
		}
		return &IdentExpr{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected expression, found %s", t)
	}
}
