package query

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// andOfOrs is ("a0" OR "b0") AND … AND ("a<n-1>" OR "b<n-1>"): 2n terms
// whose normal form has 2^n conjuncts.
func andOfOrs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, `("a%d" OR "b%d")`, i, i)
	}
	return b.String()
}

// FuzzParse checks the expression parser never panics on arbitrary input,
// that everything it accepts round-trips stably through String(), and that
// Prepare is the per-method derivations gathered once: within the term limit
// its fields are Node.Terms, Node.DNF and Node.Canonical, and its Plan is the
// one Node.Plan builds, nil DNF for SPARSE included; over it, a
// TermLimitError and no normal form (the seeds hold one of 2^32 conjuncts,
// which no run that built it would survive).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`"a"`,
		`"a" AND "b"`,
		`"a" OR ("b" AND "c")`,
		`(((("x"))))`,
		`"a" AND`,
		`""`,
		`"unterminated`,
		`AND OR ()`,
		"\"\x00\"",
		`"a" and "b" Or "c"`,
		`"a" AND ("b" OR "c") AND ("d" OR "e" OR "f")`,
		`"a" OR "a" OR "a"`,
		`  "spaced"   AND   "out"  `,
		`("a" AND "b") OR ("a" AND "b")`,
		`"üñíçødé" AND "テスト"`,
		`"a"AND"b"`,
		`)(`,
		`"a" ANDAND "b"`,
		`SPARSE("a", "b", "a")`,
		`sparse("x")`,
		`SPARSE("a") OR "b"`,
		`SPARSE(`,
		`SPARSE("d", "c", "b", "a")`,
		`"a" AND ("b" OR "c") OR "d" AND "e"`,
		andOfOrs(8),  // 16 terms: at the limit, 256 conjuncts
		andOfOrs(9),  // 18: refused
		andOfOrs(32), // 64: refused before anyone normalises it
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Parse(src)
		p, perr := Prepare(src)
		if err != nil {
			if perr == nil || p != nil {
				t.Fatalf("Prepare accepted what Parse refuses (%v)", err)
			}
			return // rejection is fine; panics are not
		}
		if n := node.CountTerms(); n > MaxTerms {
			var lim *TermLimitError
			if p != nil || !errors.As(perr, &lim) || lim.Terms != n {
				t.Fatalf("%d terms: Prepare = %v, %v; want a TermLimitError naming the count", n, p, perr)
			}
			return // and nothing below may normalise it either
		}
		if perr != nil {
			t.Fatalf("Prepare refused %d terms: %v", node.CountTerms(), perr)
		}
		if !reflect.DeepEqual(p.Terms, node.Terms()) || p.Key != node.Canonical() {
			t.Fatalf("Prepare = %q %v, want Canonical %q and Terms %v", p.Key, p.Terms, node.Canonical(), node.Terms())
		}
		if sparse := node.Op == OpSparse; (p.DNF == nil) != sparse || (!sparse && !reflect.DeepEqual(p.DNF, node.DNF())) {
			t.Fatalf("Prepare's DNF = %v, want %s's", p.DNF, node)
		}
		if pl := MustParse(src).Plan(); !reflect.DeepEqual(pl, p.Plan) {
			t.Fatalf("Node.Plan = %#v, Prepare's = %#v", pl, p.Plan)
		}
		rendered := node.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() output %q does not reparse: %v", rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("String() not a fixed point: %q -> %q", rendered, again.String())
		}
		terms := map[string]bool{}
		for _, term := range node.Terms() {
			terms[term] = true
		}
		if node.Op == OpSparse {
			// No DNF; the parsed terms are a set and the key names them.
			if len(terms) != node.CountTerms() {
				t.Fatalf("SPARSE kept a repeated term: %v", node.Terms())
			}
			if again.Canonical() != node.Canonical() {
				t.Fatalf("Canonical() moved across the round trip: %q -> %q", node.Canonical(), again.Canonical())
			}
			return
		}
		// DNF must terminate and produce only terms from the expression.
		for _, conj := range node.DNF() {
			if len(conj) == 0 {
				t.Fatal("empty conjunct in DNF")
			}
			for _, term := range conj {
				if !terms[term] {
					t.Fatalf("DNF invented term %q", term)
				}
			}
		}
	})
}
