// Package query parses the boolean query expressions accepted by the
// paper's offloading API (Section IV-D): quoted terms combined with AND/OR
// and round brackets, e.g. `"A" AND ("B" OR "C")`. It also normalizes mixed
// queries to the disjunctive form BOSS executes ("intersections first":
// A AND (B OR C) becomes (A AND B) OR (A AND C)).
package query

import (
	"fmt"
	"sort"
	"strings"
)

// Op is a node operator.
type Op int

// Node operators.
const (
	OpTerm   Op = iota // leaf: a single query term
	OpAnd              // intersection of children
	OpOr               // union of children
	OpSparse           // sparse-dot family (Q7): sum of quantized impacts
)

// Node is a parsed query expression node. Term is set only for OpTerm;
// Children only for OpAnd/OpOr (always ≥ 2 children, same-op children are
// flattened) and OpSparse (≥ 1 distinct term leaves). OpSparse is only ever the
// root: `SPARSE("a", "b")` is a whole query family, not a boolean
// operand, and the parser rejects it under AND/OR.
type Node struct {
	Op       Op
	Term     string
	Children []*Node
}

// Term returns a leaf node.
func Term(name string) *Node { return &Node{Op: OpTerm, Term: name} }

// sparseSet collects a SPARSE node's distinct terms in first-occurrence
// order. Up to sparseScanMax terms it deduplicates by scanning what it
// already holds, which allocates nothing (serving queries hold at most 16
// terms); wider input — which every execution path rejects later — switches
// to a map, so a hostile expression cannot make parsing quadratic.
type sparseSet struct {
	children []*Node
	seen     map[string]struct{} // nil until len(children) reaches sparseScanMax
}

const sparseScanMax = 32

func (s *sparseSet) add(term string) {
	if s.seen == nil {
		for _, c := range s.children {
			if c.Term == term {
				return
			}
		}
		if len(s.children) < sparseScanMax {
			s.children = append(s.children, Term(term))
			return
		}
		s.seen = make(map[string]struct{}, 2*sparseScanMax)
		for _, c := range s.children {
			s.seen[c.Term] = struct{}{}
		}
	}
	if _, dup := s.seen[term]; !dup {
		s.seen[term] = struct{}{}
		s.children = append(s.children, Term(term))
	}
}

// And returns the intersection of nodes, flattening nested ANDs.
func And(nodes ...*Node) *Node { return combine(OpAnd, nodes) }

// Or returns the union of nodes, flattening nested ORs.
func Or(nodes ...*Node) *Node { return combine(OpOr, nodes) }

func combine(op Op, nodes []*Node) *Node {
	var flat []*Node
	for _, n := range nodes {
		if n.Op == op {
			flat = append(flat, n.Children...)
		} else {
			flat = append(flat, n)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Node{Op: op, Children: flat}
}

// Terms returns every term in the expression, in appearance order, with
// duplicates preserved.
func (n *Node) Terms() []string {
	var out []string
	n.walk(func(m *Node) {
		if m.Op == OpTerm {
			out = append(out, m.Term)
		}
	})
	return out
}

func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// CountTerms reports the number of term occurrences without materializing
// them: what Prepare holds against the term limit.
func (n *Node) CountTerms() int {
	c := 0
	if n.Op == OpTerm {
		c = 1
	}
	for _, child := range n.Children {
		c += child.CountTerms()
	}
	return c
}

// String renders the expression in the API syntax with minimal parentheses
// (AND binds tighter than OR).
func (n *Node) String() string {
	switch n.Op {
	case OpTerm:
		return `"` + n.Term + `"`
	case OpAnd:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			s := c.String()
			if c.Op == OpOr {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, " AND ")
	case OpOr:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return strings.Join(parts, " OR ")
	case OpSparse:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = `"` + c.Term + `"`
		}
		return "SPARSE(" + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}

// IsPureOr reports whether the expression is a single term or a disjunction
// of terms only.
func (n *Node) IsPureOr() bool {
	if n.Op == OpTerm {
		return true
	}
	if n.Op != OpOr {
		return false
	}
	for _, c := range n.Children {
		if c.Op != OpTerm {
			return false
		}
	}
	return true
}

// DNF normalizes the expression into disjunctive normal form: a union of
// conjunctions, each a list of terms. This is exactly the paper's mixed-
// query execution order ("BOSS performs intersections first"): A AND (B OR
// C) becomes [[A B] [A C]]. A pure term yields one single-term conjunct.
func (n *Node) DNF() [][]string {
	switch n.Op {
	case OpTerm:
		return [][]string{{n.Term}}
	case OpOr:
		var out [][]string
		for _, c := range n.Children {
			out = append(out, c.DNF()...)
		}
		return out
	case OpAnd:
		// Cross product of the children's DNFs.
		out := [][]string{{}}
		for _, c := range n.Children {
			cd := c.DNF()
			next := make([][]string, 0, len(out)*len(cd))
			for _, a := range out {
				for _, b := range cd {
					conj := make([]string, 0, len(a)+len(b))
					conj = append(conj, a...)
					conj = append(conj, b...)
					next = append(next, conj)
				}
			}
			out = next
		}
		return out
	case OpSparse:
		// Sparse queries are not boolean: they have no disjunctive
		// normal form. Execution paths dispatch on OpSparse before
		// normalizing, so reaching here is a programming error.
		panic("query: sparse node has no DNF")
	default:
		panic("query: unknown op")
	}
}

// Canonical renders the expression's DNF in a canonical form usable as a
// coalescing key: terms within each conjunct are sorted and deduplicated,
// conjuncts are sorted lexicographically and deduplicated, and the result
// joins conjunct terms with '&' and conjuncts with '|'. Every expression
// with the same DNF match semantics maps to the same key — `"b" AND "a"`,
// `"a" AND "b"`, and `"a" AND "b" AND "b"` all yield `a&b` — which is what
// the front-door singleflight layer dedups concurrent identical queries on.
// (Absorption is not applied: `"a" OR ("a" AND "b")` keeps both conjuncts.
// Keys are unambiguous for tokenized terms, which never contain '&'/'|'.)
//
// Sparse queries canonicalize to '~' plus their sorted terms joined with
// '&' (Sparse and the parser already made them distinct, so the key names
// exactly the lists execution scores). Tokenized terms never contain '~',
// so sparse keys can never collide with boolean keys: SPARSE("b", "a") →
// `~a&b`, which the front door dedups exactly like boolean keys.
func (n *Node) Canonical() string {
	if n.Op == OpSparse {
		terms := n.Terms()
		sort.Strings(terms)
		return "~" + strings.Join(terms, "&")
	}
	return canonicalDNF(n.DNF())
}

// canonicalDNF renders a normal form's canonical key; dnf is left as it is.
func canonicalDNF(dnf [][]string) string {
	conjs := make([]string, 0, len(dnf))
	for _, conj := range dnf {
		terms := append([]string(nil), conj...)
		sort.Strings(terms)
		conjs = append(conjs, strings.Join(dedupSorted(terms), "&"))
	}
	sort.Strings(conjs)
	return strings.Join(dedupSorted(conjs), "|")
}

// dedupSorted compacts consecutive duplicates of a sorted slice in place.
func dedupSorted(s []string) []string {
	w := 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

// MaxTerms is the most term occurrences (as CountTerms counts them) the
// device handles in hardware: four BOSS cores with chained mergers, Section
// IV-D. Wider queries are the host's to split.
const MaxTerms = 16

// TermLimitError is Prepare's refusal of an expression holding Terms term
// occurrences, more than MaxTerms.
type TermLimitError struct{ Terms int }

func (e *TermLimitError) Error() string {
	return fmt.Sprintf("query has %d terms; hardware handles up to %d", e.Terms, MaxTerms)
}

// Plan is what the device executes: a normal form or, when DNF is nil (a
// SPARSE query, which has none), the term set in Terms. Terms is every term
// occurrence in appearance order (Node.Terms), what a dictionary check
// probes; DNF is Node.DNF.
type Plan struct {
	Terms []string
	DNF   [][]string
}

// Plan is the one place a syntax tree becomes a plan. It holds no term limit:
// Prepare checks that before it normalises.
func (n *Node) Plan() Plan {
	if n.Op == OpSparse {
		return Plan{Terms: n.Terms()}
	}
	return Plan{Terms: n.Terms(), DNF: n.DNF()}
}

// Prepared is an expression ready to execute — parsed, within the term limit,
// normalised — and the only form of a query the serving path knows below the
// front door: the key cache holds it, a flight hands it to the backend, each
// shard narrows its plan to the terms it holds. It keeps none of the syntax
// tree and is immutable once returned: every submission of the expression and
// every shard run shares it, so nobody writes through its slices.
type Prepared struct {
	Key string // the canonical coalescing key (Node.Canonical), rendered from DNF
	Plan
}

// Prepare parses expr, refuses more than MaxTerms term occurrences (a
// *TermLimitError), then normalises — in that order: an AND of n two-way ORs
// has 2^n conjuncts.
func Prepare(expr string) (*Prepared, error) {
	n, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	if c := n.CountTerms(); c > MaxTerms {
		return nil, &TermLimitError{Terms: c}
	}
	p := &Prepared{Plan: n.Plan()}
	if p.DNF == nil {
		p.Key = n.Canonical()
	} else {
		p.Key = canonicalDNF(p.DNF)
	}
	return p, nil
}

// --- parser ---

type tokenKind int

const (
	tokTerm tokenKind = iota
	tokAnd
	tokOr
	tokSparse
	tokComma
	tokLParen
	tokRParen
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	switch c := l.src[l.pos]; {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case c == '"':
		l.pos++
		termStart := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("query: unterminated quote at %d", start)
		}
		term := l.src[termStart:l.pos]
		l.pos++ // closing quote
		if term == "" {
			return token{}, fmt.Errorf("query: empty term at %d", start)
		}
		return token{kind: tokTerm, text: term, pos: start}, nil
	default:
		for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		switch strings.ToUpper(word) {
		case "AND":
			return token{kind: tokAnd, pos: start}, nil
		case "OR":
			return token{kind: tokOr, pos: start}, nil
		case "SPARSE":
			return token{kind: tokSparse, pos: start}, nil
		case "":
			return token{}, fmt.Errorf("query: unexpected character %q at %d", c, start)
		default:
			return token{}, fmt.Errorf("query: unexpected word %q at %d (terms must be quoted)", word, start)
		}
	}
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// Parse parses an expression in the offloading-API syntax: a boolean
// expression over quoted terms, or the sparse-dot form
// `SPARSE("a", "b", ...)` (which must be the whole query).
func Parse(src string) (*Node, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var n *Node
	var err error
	if p.tok.kind == tokSparse {
		n, err = p.parseSparse()
	} else {
		n, err = p.parseOr()
	}
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at %d", p.tok.pos)
	}
	return n, nil
}

// parseSparse parses `SPARSE("a", "b", ...)` with the SPARSE keyword as
// the current token.
func (p *parser) parseSparse() (*Node, error) {
	if err := p.advance(); err != nil { // consume SPARSE
		return nil, err
	}
	if p.tok.kind != tokLParen {
		return nil, fmt.Errorf("query: SPARSE needs '(' at %d", p.tok.pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var set sparseSet // drops repeated terms
	for {
		if p.tok.kind != tokTerm {
			return nil, fmt.Errorf("query: SPARSE expects a quoted term at %d", p.tok.pos)
		}
		set.add(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokRParen {
		return nil, fmt.Errorf("query: missing ')' in SPARSE at %d", p.tok.pos)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &Node{Op: OpSparse, Children: set.children}, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (p *parser) parseOr() (*Node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	nodes := []*Node{left}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, right)
	}
	return Or(nodes...), nil
}

func (p *parser) parseAnd() (*Node, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	nodes := []*Node{left}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, right)
	}
	return And(nodes...), nil
}

func (p *parser) parsePrimary() (*Node, error) {
	switch p.tok.kind {
	case tokTerm:
		n := Term(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return n, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("query: missing ')' at %d", p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return n, nil
	case tokSparse:
		return nil, fmt.Errorf("query: SPARSE cannot appear under boolean operators (at %d); it must be the whole query", p.tok.pos)
	case tokEOF:
		return nil, fmt.Errorf("query: unexpected end of expression")
	default:
		return nil, fmt.Errorf("query: unexpected token at %d", p.tok.pos)
	}
}
