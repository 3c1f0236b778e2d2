package sql

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString // 'quoted'
	tokPunct  // ( ) , . = * ? ;
)

// token is one lexeme. Its text is a substring of the statement, or for a
// keyword the canonical upper-case string from the keyword table, so a
// token owns no memory of its own; only a string literal with an escaped
// quote is rebuilt.
type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords maps each keyword the parser recognizes to itself, so a lookup
// by an upper-cased copy yields the canonical string.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "AND", "JOIN", "ON", "INSERT", "INTO",
		"VALUES", "UPDATE", "SET", "CREATE", "TABLE", "INDEX", "PRIMARY",
		"KEY", "NULL", "INT", "TEXT", "BLOB", "NOT", "IF", "EXISTS",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen bounds the upper-casing buffer: no keyword is longer, so a
// longer word is an identifier without a lookup.
const maxKeywordLen = 7

// keyword returns the canonical keyword that word spells, in any letter
// case. It upper-cases into a stack array, and the map lookup by that
// array's bytes does not allocate.
func keyword(word string) (string, bool) {
	var up [maxKeywordLen]byte
	if len(word) > len(up) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// lex tokenizes src, appending to toks. It is written as a single pass
// with no regexps: the lexer runs on every query a storage node receives,
// so it is part of the "query processing" CPU the experiments measure.
// On error it still returns toks, so a caller that lends its buffer gets
// it back.
func lex(toks []token, src string) ([]token, error) {
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tokKeyword, text: kw, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case isDigit(c) || c == '-' && i+1 < n && isDigit(src[i+1]):
			start := i
			i++
			for i < n && isDigit(src[i]) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			escaped, closed := false, false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						escaped = true
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				i++
			}
			if !closed {
				return toks, &ParseError{Pos: start, Msg: "unterminated string"}
			}
			text := src[start+1 : i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tokString, text: text, pos: start})
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '=' || c == '*' || c == '?' || c == ';':
			toks = append(toks, token{kind: tokPunct, text: src[i : i+1], pos: i})
			i++
		default:
			return toks, &ParseError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
