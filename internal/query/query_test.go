package query

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseSingleTerm(t *testing.T) {
	n := MustParse(`"cat"`)
	if n.Op != OpTerm || n.Term != "cat" {
		t.Fatalf("parsed %+v", n)
	}
}

func TestParseAndOrPrecedence(t *testing.T) {
	// AND binds tighter than OR: A OR B AND C == A OR (B AND C).
	n := MustParse(`"a" OR "b" AND "c"`)
	if n.Op != OpOr || len(n.Children) != 2 {
		t.Fatalf("root = %+v", n)
	}
	if n.Children[0].Term != "a" {
		t.Fatalf("left child = %+v", n.Children[0])
	}
	right := n.Children[1]
	if right.Op != OpAnd || right.Children[0].Term != "b" || right.Children[1].Term != "c" {
		t.Fatalf("right child = %+v", right)
	}
}

func TestParseParens(t *testing.T) {
	n := MustParse(`("a" OR "b") AND "c"`)
	if n.Op != OpAnd {
		t.Fatalf("root op = %v", n.Op)
	}
	if n.Children[0].Op != OpOr {
		t.Fatalf("grouped child = %+v", n.Children[0])
	}
}

func TestParseFlattensChains(t *testing.T) {
	n := MustParse(`"a" AND "b" AND "c" AND "d"`)
	if n.Op != OpAnd || len(n.Children) != 4 {
		t.Fatalf("4-term AND should flatten: %+v", n)
	}
	n = MustParse(`"a" OR "b" OR "c" OR "d"`)
	if n.Op != OpOr || len(n.Children) != 4 {
		t.Fatalf("4-term OR should flatten: %+v", n)
	}
}

func TestParseCaseInsensitiveOperators(t *testing.T) {
	n := MustParse(`"a" and "b" oR "c"`)
	if n.Op != OpOr {
		t.Fatalf("mixed-case operators: %+v", n)
	}
}

func TestParseTermsWithSpaces(t *testing.T) {
	n := MustParse(`"new york" AND "food truck"`)
	terms := n.Terms()
	if !reflect.DeepEqual(terms, []string{"new york", "food truck"}) {
		t.Fatalf("terms = %v", terms)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`"a" AND`,
		`AND "a"`,
		`"a" "b"`,
		`("a" OR "b"`,
		`"a")`,
		`"unterminated`,
		`""`,
		`cat`,
		`"a" XOR "b"`,
		`"a" & "b"`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		`"a"`,
		`"a" AND "b"`,
		`"a" OR "b"`,
		`"a" AND "b" AND "c" AND "d"`,
		`"a" AND ("b" OR "c" OR "d")`,
		`("a" OR "b") AND ("c" OR "d")`,
		`SPARSE("a")`,
		`SPARSE("b", "a", "c")`,
		`sparse("b","a","b")`,
	}
	for _, src := range cases {
		n := MustParse(src)
		rendered := n.String()
		n2 := MustParse(rendered)
		if n2.String() != rendered {
			t.Errorf("String round trip: %q -> %q -> %q", src, rendered, n2.String())
		}
	}
}

func TestPurityPredicates(t *testing.T) {
	if !MustParse(`"a" OR "b"`).IsPureOr() {
		t.Error("pure OR not detected")
	}
	if !MustParse(`"a"`).IsPureOr() {
		t.Error("single term should be pure OR")
	}
}

func TestDNFQ6(t *testing.T) {
	// The paper's running example: A AND (B OR C OR D) executes as
	// (A AND B) OR (A AND C) OR (A AND D).
	n := MustParse(`"a" AND ("b" OR "c" OR "d")`)
	got := n.DNF()
	want := [][]string{{"a", "b"}, {"a", "c"}, {"a", "d"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DNF = %v, want %v", got, want)
	}
}

func TestDNFShapes(t *testing.T) {
	cases := []struct {
		src  string
		want [][]string
	}{
		{`"a"`, [][]string{{"a"}}},
		{`"a" AND "b"`, [][]string{{"a", "b"}}},
		{`"a" OR "b"`, [][]string{{"a"}, {"b"}}},
		{`("a" OR "b") AND ("c" OR "d")`,
			[][]string{{"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}}},
		{`"a" AND "b" AND "c" AND "d"`, [][]string{{"a", "b", "c", "d"}}},
	}
	for _, tc := range cases {
		got := MustParse(tc.src).DNF()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("DNF(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// A SPARSE query is the set of terms its Canonical key names: the
// constructor and the parser keep the first occurrence of each term, so
// every entry point (engine, core, pool, facade, front door) executes and
// coalesces the same lists, and the hardware term limit counts distinct
// terms.
func TestSparseTermsAreASet(t *testing.T) {
	want := []string{"fox", "dog", "cat"}
	if got := Sparse("fox", "dog", "dog", "fox", "cat", "dog").Terms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sparse(...).Terms() = %v, want %v", got, want)
	}
	rep := MustParse(`SPARSE("fox", "dog", "dog", "dog", "dog")`)
	set := MustParse(`SPARSE("fox", "dog")`)
	if !reflect.DeepEqual(rep, set) {
		t.Fatalf("repeated terms parse to %s, want %s", rep, set)
	}
	if got := rep.String(); got != `SPARSE("fox", "dog")` {
		t.Fatalf("String() = %s", got)
	}
	if got := rep.CountTerms(); got != 2 {
		t.Fatalf("CountTerms() = %d, want 2 distinct terms", got)
	}
	if rep.Canonical() != "~dog&fox" || set.Canonical() != "~dog&fox" {
		t.Fatalf("Canonical() = %q / %q, want ~dog&fox", rep.Canonical(), set.Canonical())
	}
	// 17 occurrences of 2 terms is a 2-term query, not an over-wide one.
	wide := make([]string, 17)
	for i := range wide {
		wide[i] = []string{"a", "b"}[i%2]
	}
	if got := Sparse(wide...).CountTerms(); got != 2 {
		t.Fatalf("CountTerms() = %d over repeated terms, want 2", got)
	}
	// Past sparseScanMax the set switches from scanning to a map; the
	// result is the same on both sides of the switch.
	var many, distinct []string
	for i := 0; i < 3*sparseScanMax; i++ {
		term := "t" + strconv.Itoa(i)
		distinct = append(distinct, term)
		many = append(many, term, "t"+strconv.Itoa(i/2)) // each term again, later
	}
	if got := Sparse(many...).Terms(); !reflect.DeepEqual(got, distinct) {
		t.Fatalf("wide Sparse kept %d terms, want the %d distinct ones in first-occurrence order", len(got), len(distinct))
	}
	// Deduplicating a serving-width query costs no allocation beyond the
	// nodes themselves.
	eight := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	dup := append(append([]string(nil), eight...), eight...)
	if plain, withDups := testing.AllocsPerRun(100, func() { Sparse(eight...) }), testing.AllocsPerRun(100, func() { Sparse(dup...) }); withDups > plain {
		t.Fatalf("Sparse allocates %.0f with repeats vs %.0f without", withDups, plain)
	}
}

func TestNumTerms(t *testing.T) {
	if got := MustParse(`"a" AND ("b" OR "c" OR "a")`).CountTerms(); got != 4 {
		t.Fatalf("CountTerms = %d, want 4 occurrences", got)
	}
}

func TestBuilderHelpers(t *testing.T) {
	n := And(Term("a"), Or(Term("b"), Term("c")))
	if n.String() != `"a" AND ("b" OR "c")` {
		t.Fatalf("built expr = %q", n.String())
	}
	// Single-node combination collapses.
	if And(Term("x")).Op != OpTerm {
		t.Fatal("And of one node should collapse to the node")
	}
	// Nested same-op flattens.
	n = Or(Or(Term("a"), Term("b")), Term("c"))
	if len(n.Children) != 3 {
		t.Fatalf("nested OR should flatten: %+v", n)
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("MustParse should panic on invalid input")
		} else if !strings.Contains(r.(error).Error(), "query:") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	MustParse(`bogus`)
}

// Sparse returns a sparse-dot (Q7) query over the given terms. A sparse
// query is a set of terms — that is what its Canonical key says, and what
// the front door coalesces on — so a repeated term keeps only its first
// occurrence; execution then scores each list once.
func Sparse(terms ...string) *Node {
	set := sparseSet{children: make([]*Node, 0, len(terms))}
	for _, t := range terms {
		set.add(t)
	}
	return &Node{Op: OpSparse, Children: set.children}
}
