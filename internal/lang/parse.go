package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for the W2-like grammar:
//
//	program  ::= "program" IDENT ";" { constsec | varsec } block "." EOF
//	constsec ::= "const" { IDENT "=" number ";" }
//	varsec   ::= "var" { identlist ":" type ";" }
//	type     ::= "int" | "real" | "array" "[" int ".." int "]" "of" type
//	block    ::= "begin" stmts "end"
//	stmts    ::= { stmt ";" }
//	stmt     ::= assign | if | for | block | ("nopipeline"|"independent"|"unroll") for
//	assign   ::= lvalue ":=" expr
//	if       ::= "if" expr "then" stmt [ "else" stmt ]
//	for      ::= "for" IDENT ":=" expr ("to"|"downto") expr "do" stmt
//	expr     ::= orexpr; usual Pascal precedence, intrinsic calls allowed
type Parser struct {
	toks  []Token
	pos   int
	depth int // expression nesting guard
}

// Parse parses a complete program.
func Parse(src string) (*ProgramAST, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.program()
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

// next consumes the current token; the final EOF is never consumed, so a
// parse that runs off the end of its input reports an error at EOF.
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("line %d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) accept(kind TokKind, text string) bool {
	t := p.cur()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *Parser) program() (*ProgramAST, error) {
	prog := &ProgramAST{}
	if err := p.expect(TokKeyword, "program"); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokIdent {
		return nil, p.errf("expected program name")
	}
	prog.Name = p.next().Text
	if err := p.expect(TokOp, ";"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.cur().Kind == TokKeyword && p.cur().Text == "const":
			p.next()
			for p.cur().Kind == TokIdent {
				c := &ConstDecl{Name: p.next().Text, Line: p.cur().Line}
				if err := p.expect(TokOp, "="); err != nil {
					return nil, err
				}
				neg := p.accept(TokOp, "-")
				t := p.next()
				switch t.Kind {
				case TokIntLit:
					v, err := strconv.ParseInt(t.Text, 10, 64)
					if err != nil {
						return nil, p.errf("bad integer %q", t.Text)
					}
					if neg {
						v = -v
					}
					c.IVal = v
					c.FVal = float64(v)
				case TokRealLit:
					v, err := strconv.ParseFloat(t.Text, 64)
					if err != nil {
						return nil, p.errf("bad real %q", t.Text)
					}
					if neg {
						v = -v
					}
					c.Real = true
					c.FVal = v
				default:
					return nil, p.errf("expected number after '='")
				}
				prog.Consts = append(prog.Consts, c)
				if err := p.expect(TokOp, ";"); err != nil {
					return nil, err
				}
			}
		case p.cur().Kind == TokKeyword && p.cur().Text == "var":
			p.next()
			for p.cur().Kind == TokIdent {
				var names []string
				names = append(names, p.next().Text)
				for p.accept(TokOp, ",") {
					if p.cur().Kind != TokIdent {
						return nil, p.errf("expected identifier after ','")
					}
					names = append(names, p.next().Text)
				}
				if err := p.expect(TokOp, ":"); err != nil {
					return nil, err
				}
				ty, err := p.parseType()
				if err != nil {
					return nil, err
				}
				for _, n := range names {
					prog.Vars = append(prog.Vars, &VarDecl{Name: n, Type: ty, Line: p.cur().Line})
				}
				if err := p.expect(TokOp, ";"); err != nil {
					return nil, err
				}
			}
		default:
			goto body
		}
	}
body:
	stmts, err := p.block()
	if err != nil {
		return nil, err
	}
	prog.Body = stmts
	if !p.accept(TokOp, ".") {
		// Trailing '.' is optional.
		_ = prog
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errf("trailing input after program end")
	}
	return prog, nil
}

func (p *Parser) parseType() (Type, error) {
	switch {
	case p.accept(TokKeyword, "int"):
		return Type{Real: false}, nil
	case p.accept(TokKeyword, "real"):
		return Type{Real: true}, nil
	case p.accept(TokKeyword, "array"):
		if err := p.expect(TokOp, "["); err != nil {
			return Type{}, err
		}
		lo, err := p.constInt()
		if err != nil {
			return Type{}, err
		}
		if err := p.expect(TokOp, ".."); err != nil {
			return Type{}, err
		}
		hi, err := p.constInt()
		if err != nil {
			return Type{}, err
		}
		if err := p.expect(TokOp, "]"); err != nil {
			return Type{}, err
		}
		if err := p.expect(TokKeyword, "of"); err != nil {
			return Type{}, err
		}
		elem, err := p.parseType()
		if err != nil {
			return Type{}, err
		}
		if lo != 0 {
			return Type{}, p.errf("array lower bound must be 0")
		}
		if hi < 0 {
			return Type{}, p.errf("array upper bound must be >= 0")
		}
		if len(elem.Dims) >= 2 {
			return Type{}, p.errf("arrays of more than 2 dimensions are not supported")
		}
		return Type{Real: elem.Real, Dims: append([]int{int(hi + 1)}, elem.Dims...)}, nil
	}
	return Type{}, p.errf("expected a type, found %s", p.cur())
}

func (p *Parser) constInt() (int64, error) {
	if p.cur().Kind != TokIntLit {
		return 0, p.errf("expected integer literal")
	}
	v, err := strconv.ParseInt(p.next().Text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer")
	}
	return v, nil
}

func (p *Parser) block() ([]StmtAST, error) {
	if err := p.expect(TokKeyword, "begin"); err != nil {
		return nil, err
	}
	var stmts []StmtAST
	for {
		if p.accept(TokKeyword, "end") {
			return stmts, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
		// Semicolons between statements, tolerated liberally.
		for p.accept(TokOp, ";") {
		}
	}
}

func (p *Parser) stmtOrBlock() ([]StmtAST, error) {
	if p.cur().Kind == TokKeyword && p.cur().Text == "begin" {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []StmtAST{s}, nil
}

func (p *Parser) stmt() (StmtAST, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "nopipeline":
		p.next()
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		f, ok := s.(*ForStmt)
		if !ok {
			return nil, p.errf("nopipeline must precede a for loop")
		}
		f.NoPipeline = true
		return f, nil
	case t.Kind == TokKeyword && t.Text == "independent":
		p.next()
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		f, ok := s.(*ForStmt)
		if !ok {
			return nil, p.errf("independent must precede a for loop")
		}
		f.Independent = true
		return f, nil
	case t.Kind == TokKeyword && t.Text == "unroll":
		p.next()
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		f, ok := s.(*ForStmt)
		if !ok {
			return nil, p.errf("unroll must precede a for loop")
		}
		f.Unroll = true
		return f, nil
	case t.Kind == TokKeyword && t.Text == "send":
		line := p.next().Line
		if err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &SendStmt{Value: v, Line: line}, nil
	case t.Kind == TokKeyword && t.Text == "for":
		return p.forStmt()
	case t.Kind == TokKeyword && t.Text == "if":
		return p.ifStmt()
	case t.Kind == TokIdent:
		return p.assign()
	}
	return nil, p.errf("expected a statement, found %s", t)
}

func (p *Parser) assign() (StmtAST, error) {
	line := p.cur().Line
	lv, err := p.varRef()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokOp, ":="); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Target: lv, Value: e, Line: line}, nil
}

func (p *Parser) forStmt() (StmtAST, error) {
	line := p.next().Line // for
	if p.cur().Kind != TokIdent {
		return nil, p.errf("expected loop variable")
	}
	v := p.next().Text
	if err := p.expect(TokOp, ":="); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	down := false
	if p.accept(TokKeyword, "downto") {
		down = true
	} else if err := p.expect(TokKeyword, "to"); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "do"); err != nil {
		return nil, err
	}
	body, err := p.stmtOrBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Var: v, Lo: lo, Hi: hi, Down: down, Body: body, Line: line}, nil
}

func (p *Parser) ifStmt() (StmtAST, error) {
	line := p.next().Line // if
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "then"); err != nil {
		return nil, err
	}
	then, err := p.stmtOrBlock()
	if err != nil {
		return nil, err
	}
	var els []StmtAST
	if p.accept(TokKeyword, "else") {
		els, err = p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmtAST{Cond: cond, Then: then, Else: els, Line: line}, nil
}

func (p *Parser) varRef() (*VarRef, error) {
	if p.cur().Kind != TokIdent {
		return nil, p.errf("expected identifier")
	}
	t := p.next()
	v := &VarRef{Name: t.Text, Line: t.Line}
	for p.accept(TokOp, "[") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		v.Index = append(v.Index, e)
		if err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		if len(v.Index) > 2 {
			return nil, p.errf("too many subscripts")
		}
	}
	return v, nil
}

// maxExprDepth bounds expression nesting so adversarial inputs cannot
// exhaust the parser's stack.
const maxExprDepth = 200

// Expression grammar with Pascal-ish precedence.
func (p *Parser) expr() (ExprAST, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, p.errf("expression nested too deeply")
	}
	return p.orExpr()
}

func (p *Parser) orExpr() (ExprAST, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokKeyword && p.cur().Text == "or" {
		line := p.next().Line
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "or", L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *Parser) andExpr() (ExprAST, error) {
	l, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokKeyword && p.cur().Text == "and" {
		line := p.next().Line
		r, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "and", L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *Parser) relExpr() (ExprAST, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: t.Text, L: l, R: r, Line: t.Line}, nil
		}
	}
	return l, nil
}

func (p *Parser) addExpr() (ExprAST, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokOp || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r, Line: t.Line}
	}
}

func (p *Parser) mulExpr() (ExprAST, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokOp || (t.Text != "*" && t.Text != "/") {
			return l, nil
		}
		p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r, Line: t.Line}
	}
}

func (p *Parser) unary() (ExprAST, error) {
	t := p.cur()
	if t.Kind == TokOp && t.Text == "-" {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "-", X: x, Line: t.Line}, nil
	}
	if t.Kind == TokKeyword && t.Text == "not" {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "not", X: x, Line: t.Line}, nil
	}
	return p.primary()
}

var intrinsics = map[string]int{
	"sqrt": 1, "inverse": 1, "exp": 1, "abs": 1,
	"min": 2, "max": 2, "float": 1, "trunc": 1,
	"receive": 0,
}

func (p *Parser) primary() (ExprAST, error) {
	t := p.cur()
	switch {
	case t.Kind == TokIntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &IntLit{Val: v}, nil
	case t.Kind == TokRealLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad real %q", t.Text)
		}
		return &RealLit{Val: v}, nil
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		if n, ok := intrinsics[t.Text]; ok && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "(" {
			p.next()
			p.next()
			call := &CallExpr{Name: t.Text, Line: t.Line}
			for i := 0; i < n; i++ {
				if i > 0 {
					if err := p.expect(TokOp, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return p.varRef()
	}
	return nil, p.errf("expected an expression, found %s", t)
}
