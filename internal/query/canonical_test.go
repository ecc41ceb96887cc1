package query

import "testing"

func TestCanonical(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{`"a"`, "a"},
		{`"a" AND "b"`, "a&b"},
		{`"b" AND "a"`, "a&b"},
		{`"a" AND "b" AND "b"`, "a&b"},
		{`"a" OR "b"`, "a|b"},
		{`"b" OR "a"`, "a|b"},
		{`"a" OR "a"`, "a"},
		{`"a" AND ("b" OR "c")`, "a&b|a&c"},
		{`("c" OR "b") AND "a"`, "a&b|a&c"},
		{`("a" AND "b") OR ("a" AND "c")`, "a&b|a&c"},
		// Absorption is deliberately not applied.
		{`"a" OR ("a" AND "b")`, "a|a&b"},
		// Sparse keys: '~' + the sorted (distinct) terms.
		{`SPARSE("b", "a")`, "~a&b"},
		{`SPARSE("a", "b", "a", "a")`, "~a&b"},
		{`SPARSE("a")`, "~a"},
	}
	for _, tc := range cases {
		got := MustParse(tc.expr).Canonical()
		if got != tc.want {
			t.Errorf("Canonical(%s) = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

// TestCanonicalEquivalenceClasses verifies the coalescing property the
// front door relies on: expressions with the same DNF match semantics
// share a key, and semantically different expressions do not.
func TestCanonicalEquivalenceClasses(t *testing.T) {
	same := [][]string{
		{`"x" AND "y"`, `"y" AND "x"`, `"x" AND "y" AND "x"`},
		{`"x" OR "y" OR "z"`, `"z" OR "y" OR "x"`},
		{`"x" AND ("y" OR "z")`, `("x" AND "y") OR ("x" AND "z")`},
	}
	for gi, group := range same {
		want := MustParse(group[0]).Canonical()
		for _, e := range group[1:] {
			if got := MustParse(e).Canonical(); got != want {
				t.Errorf("group %d: Canonical(%s) = %q, want %q (same class as %s)",
					gi, e, got, want, group[0])
			}
		}
	}
	distinct := []string{`"x"`, `"y"`, `"x" AND "y"`, `"x" OR "y"`, `SPARSE("x")`, `SPARSE("x", "y")`}
	seen := map[string]string{}
	for _, e := range distinct {
		key := MustParse(e).Canonical()
		if prev, dup := seen[key]; dup {
			t.Errorf("distinct expressions %s and %s share key %q", prev, e, key)
		}
		seen[key] = e
	}
}
