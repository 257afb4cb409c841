// Package lang implements a small W2-like source language — the Warp
// machine was programmed in W2, whose "conventional Pascal-like control
// constructs are used to specify the cell programs" (Lam §1) — with a
// lexer, recursive-descent parser, type checker, and a lowering pass onto
// the IR of internal/ir (including strength-reduced, affine-annotated
// array addressing and the software expansions of INVERSE, SQRT and EXP
// described in §4.2).
package lang

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokRealLit
	TokKeyword
	TokOp // operators and punctuation
)

// Token is one lexeme with its position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"program": true, "var": true, "const": true, "begin": true, "end": true,
	"for": true, "to": true, "downto": true, "do": true, "if": true,
	"then": true, "else": true, "array": true, "of": true, "int": true,
	"real": true, "and": true, "or": true, "not": true, "nopipeline": true,
	"independent": true, "send": true, "unroll": true,
}

// Lexer splits source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '{': // Pascal comment
			for l.pos < len(l.src) && l.peek() != '}' {
				l.advance()
			}
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("line %d: unterminated comment", l.line)
			}
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			goto tokenStart
		}
	}
	return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil

tokenStart:
	line, col := l.line, l.col
	c := l.peek()
	switch {
	case isLetter(c):
		var b strings.Builder
		for l.pos < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			b.WriteByte(l.advance())
		}
		text := strings.ToLower(b.String())
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
	case isDigit(c):
		var b strings.Builder
		isReal := false
		for l.pos < len(l.src) && isDigit(l.peek()) {
			b.WriteByte(l.advance())
		}
		if l.peek() == '.' && isDigit(l.peek2()) {
			isReal = true
			b.WriteByte(l.advance())
			for l.pos < len(l.src) && isDigit(l.peek()) {
				b.WriteByte(l.advance())
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			isReal = true
			b.WriteByte(l.advance())
			if l.peek() == '+' || l.peek() == '-' {
				b.WriteByte(l.advance())
			}
			if !isDigit(l.peek()) {
				return Token{}, fmt.Errorf("line %d: malformed exponent", line)
			}
			for l.pos < len(l.src) && isDigit(l.peek()) {
				b.WriteByte(l.advance())
			}
		}
		kind := TokIntLit
		if isReal {
			kind = TokRealLit
		}
		return Token{Kind: kind, Text: b.String(), Line: line, Col: col}, nil
	default:
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case ":=", "<=", ">=", "<>", "..":
			l.advance()
			l.advance()
			return Token{Kind: TokOp, Text: two, Line: line, Col: col}, nil
		}
		switch c {
		case '+', '-', '*', '/', '(', ')', '[', ']', ';', ',', ':', '=', '<', '>', '.':
			l.advance()
			return Token{Kind: TokOp, Text: string(c), Line: line, Col: col}, nil
		}
		_, size := utf8.DecodeRuneInString(l.src[l.pos:])
		return Token{}, fmt.Errorf("line %d:%d: unexpected character %q", line, col, l.src[l.pos:l.pos+size])
	}
}

// isLetter and isDigit are the bytes an identifier is made of: ASCII
// letters, '_' and ASCII digits.  Any other byte, each byte of a
// multi-byte UTF-8 character included, is an unexpected character.
func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// LexAll tokenizes the whole input (including the trailing EOF token).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	// W2 text runs at two to three bytes a token, so half the length
	// holds a whole program without regrowing (the canonicaliser runs on
	// every request, hits included); the cap keeps a large, mostly blank
	// input from reserving memory it will not use.
	toks := make([]Token, 0, min(len(src)/2+1, 4096))
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
