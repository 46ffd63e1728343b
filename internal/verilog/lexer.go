// Package verilog implements a frontend for the synthesizable Verilog
// subset the smaRTLy paper exercises: modules with port lists, wire/reg
// declarations, parameters, continuous assignments, combinational
// always @(*) blocks and clocked always @(posedge ...) blocks with
// if/else and case/casez statements — the constructs that elaborate into
// the muxtrees the optimizer targets.
//
// Identifiers are ASCII (escaped identifiers are not supported), and no
// declared range, sized literal, replication or concatenation may be
// wider than 4096 bits.
//
// The pipeline is lexer → parser (AST) → elaborator (rtlil netlist),
// mirroring how Yosys' frontend feeds opt_muxtree.
package verilog

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber  // 123, 8'hff, 3'b1zz
	TokKeyword // module, wire, case, ...
	TokSymbol  // punctuation and operators
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	return fmt.Sprintf("%s %q @%d:%d", t.kindName(), t.Text, t.Line, t.Col)
}

func (t Token) kindName() string {
	switch t.Kind {
	case TokEOF:
		return "eof"
	case TokIdent:
		return "ident"
	case TokNumber:
		return "number"
	case TokKeyword:
		return "keyword"
	case TokSymbol:
		return "symbol"
	}
	return "?"
}

var keywords = map[string]bool{
	"module": true, "endmodule": true,
	"input": true, "output": true, "inout": true,
	"wire": true, "reg": true, "integer": true,
	"assign": true, "always": true, "posedge": true, "negedge": true,
	"if": true, "else": true,
	"case": true, "casez": true, "casex": true, "endcase": true,
	"default": true, "begin": true, "end": true,
	"parameter": true, "localparam": true,
	"function": true, "endfunction": true,
	"or": true,
}

// multi-character symbols, longest first.
var symbols = []string{
	"<<<", ">>>", "===", "!==",
	"<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "~^", "^~", "**",
	"+", "-", "*", "/", "%", "!", "~", "&", "|", "^",
	"(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "?", "=", "<", ">",
	"@", "#",
}

// Lex tokenizes Verilog source. Comments (// and /* */) are skipped.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine := line
			advance(2)
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				advance(1)
			}
			if i+1 >= n {
				return nil, fmt.Errorf("verilog:%d: unterminated block comment", startLine)
			}
			advance(2)
		case c == '`':
			// Skip compiler directives to end of line (timescale etc.).
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '\\':
			return nil, fmt.Errorf("verilog:%d:%d: escaped identifiers are not supported", line, col)
		case c >= 0x80:
			return nil, fmt.Errorf("verilog:%d:%d: non-ASCII byte %#x (identifiers and keywords are ASCII)", line, col, c)
		case isIdentStart(c):
			start := i
			startCol := col
			for i < n && isIdentPart(src[i]) {
				advance(1)
			}
			text := src[start:i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{kind, text, line, startCol})
		case c >= '0' && c <= '9', c == '\'':
			start := i
			startCol := col
			// Leading digits (optional size).
			for i < n && (isDigit(src[i]) || src[i] == '_') {
				advance(1)
			}
			if i < n && src[i] == '\'' {
				advance(1)
				if i < n && (src[i] == 's' || src[i] == 'S') {
					advance(1)
				}
				if i < n {
					advance(1) // base char
				}
				for i < n && (isAlnum(src[i]) || src[i] == '_' || src[i] == '?') {
					advance(1)
				}
			}
			toks = append(toks, Token{TokNumber, src[start:i], line, startCol})
		case c == '"':
			advance(1)
			for i < n && src[i] != '"' {
				advance(1)
			}
			if i >= n {
				return nil, fmt.Errorf("verilog:%d: unterminated string", line)
			}
			advance(1) // strings are ignored by the parser
		default:
			matched := false
			for _, s := range symbols {
				if strings.HasPrefix(src[i:], s) {
					toks = append(toks, Token{TokSymbol, s, line, col})
					advance(len(s))
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("verilog:%d:%d: unexpected character %q", line, col, c)
			}
		}
	}
	toks = append(toks, Token{TokEOF, "", line, col})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || isAlnum(c)
}

func isAlnum(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
