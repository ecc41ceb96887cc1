package query

import (
	"errors"
	"reflect"
	"testing"
)

func TestPrepare(t *testing.T) {
	cases := []struct {
		expr  string
		key   string
		terms []string
		dnf   [][]string // nil: a sparse query
	}{
		{`"a"`, "a", []string{"a"}, [][]string{{"a"}}},
		{`"b" AND "a" AND "b"`, "a&b", []string{"b", "a", "b"}, [][]string{{"b", "a", "b"}}},
		{`"b" OR "a"`, "a|b", []string{"b", "a"}, [][]string{{"b"}, {"a"}}},
		{`("c" OR "b") AND "a"`, "a&b|a&c", []string{"c", "b", "a"}, [][]string{{"c", "a"}, {"b", "a"}}},
		{`SPARSE("b", "a", "b")`, "~a&b", []string{"b", "a"}, nil},
	}
	for _, tc := range cases {
		p, err := Prepare(tc.expr)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.expr, err)
		}
		if p.Key != tc.key || !reflect.DeepEqual(p.Terms, tc.terms) || !reflect.DeepEqual(p.DNF, tc.dnf) {
			t.Errorf("Prepare(%s) = %+v, want key %q terms %v dnf %v", tc.expr, *p, tc.key, tc.terms, tc.dnf)
		}
	}
	if _, err := Prepare(`"a" AND`); err == nil {
		t.Error("Prepare accepted a malformed expression")
	}
}

// TestPrepareLimitBeforeDNF: an expression over the term limit is refused on
// the parsed tree — Prepare allocates what Parse does plus the error, not one
// conjunct — whether its normal form would be one conjunct or 2^20. At the
// limit it is accepted, occurrences counted as CountTerms counts them.
func TestPrepareLimitBeforeDNF(t *testing.T) {
	seventeen := `"t0"`
	for i := 1; i < 17; i++ {
		seventeen += ` AND "t0"` // 17 occurrences of one term
	}
	for _, expr := range []string{seventeen, andOfOrs(9), andOfOrs(20)} {
		want := MustParse(expr).CountTerms()
		p, err := Prepare(expr)
		var lim *TermLimitError
		if p != nil || !errors.As(err, &lim) || lim.Terms != want {
			t.Fatalf("%d terms: Prepare = %v, %v; want a TermLimitError naming the count", want, p, err)
		}
		parse := testing.AllocsPerRun(10, func() { _, _ = Parse(expr) })
		prepare := testing.AllocsPerRun(10, func() { _, _ = Prepare(expr) })
		if prepare != parse+1 {
			t.Errorf("%d terms: Prepare allocates %.0f, Parse %.0f; want Parse's plus the error", want, prepare, parse)
		}
	}
	p, err := Prepare(andOfOrs(8))
	if err != nil || len(p.Terms) != MaxTerms || len(p.DNF) != 256 {
		t.Fatalf("16 terms in 8 pairs: %v, %v; want 256 conjuncts", p, err)
	}
	if _, err := Prepare(`SPARSE("a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a")`); err != nil {
		t.Fatalf("17 occurrences of 2 sparse terms is a 2-term query: %v", err)
	}
}
