package query

import "testing"

// FuzzParse checks the expression parser never panics on arbitrary input,
// and that everything it accepts round-trips stably through String().
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
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
