package pool

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"boss/internal/index"
	"boss/internal/query"
)

// dictIndex is a shard that indexes exactly the given terms, as the filters
// see one (they only ask whether a term has a list), and the same dictionary
// as the set the reference prune reads.
func dictIndex(terms ...string) (*index.Index, map[string]struct{}) {
	idx := &index.Index{Lists: make(map[string]*index.PostingList, len(terms))}
	has := make(map[string]struct{}, len(terms))
	for _, term := range terms {
		idx.Lists[term] = &index.PostingList{}
		has[term] = struct{}{}
	}
	return idx, has
}

// renderDNF prints a normal form in the order it is held: conjuncts joined
// by '|', their terms by '&'; "" is the empty form.
func renderDNF(dnf [][]string) string {
	conjs := make([]string, len(dnf))
	for i, conj := range dnf {
		conjs[i] = strings.Join(conj, "&")
	}
	return strings.Join(conjs, "|")
}

// TestPruneForShard: what a shard holding only "a" and "b" keeps of a query,
// by the reference prune of the tree and, conjunct by conjunct and in order,
// by the filter over the prepared normal form.
func TestPruneForShard(t *testing.T) {
	idx, has := dictIndex("a", "b")
	cases := []struct {
		expr string
		want string // "" means pruned to nothing
		dnf  string // the filtered normal form
	}{
		{`"a"`, `"a"`, `a`},
		{`"z"`, ``, ``},
		{`"a" AND "b"`, `"a" AND "b"`, `a&b`},
		{`"a" AND "z"`, ``, ``},
		{`"a" OR "z"`, `"a"`, `a`},
		{`"z" OR "y"`, ``, ``},
		{`"a" AND ("b" OR "z")`, `"a" AND "b"`, `a&b`},
		{`"z" AND ("a" OR "b")`, ``, ``},
		{`("z" OR "b") AND ("a" OR "y") AND "b"`, `"b" AND "a" AND "b"`, `b&a&b`},
		{`"b" OR ("a" AND "z") OR "a"`, `"b" OR "a"`, `b|a`},
	}
	for _, tc := range cases {
		got := pruneForShard(query.MustParse(tc.expr), has)
		if tc.want == "" {
			if got != nil {
				t.Errorf("prune(%s) = %s, want nil", tc.expr, got)
			}
		} else if got == nil || got.String() != tc.want {
			t.Errorf("prune(%s) = %v, want %s", tc.expr, got, tc.want)
		}
		p, err := query.Prepare(tc.expr)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.expr, err)
		}
		kept := filter(p.DNF, idx, holdsAll, new([][]string))
		if renderDNF(kept) != tc.dnf {
			t.Errorf("filter(%s) = %q, want %q", tc.expr, renderDNF(kept), tc.dnf)
		}
		if len(kept) == len(p.DNF) && &kept[0] != &p.DNF[0] {
			t.Errorf("filter(%s) dropped nothing but did not hand back the shared slice", tc.expr)
		}
	}
}

// TestFilterTerms is the sparse arm, which no cluster test reaches (shards
// are built without impacts): all present returns the shared slice itself,
// absent terms drop out in order, none present leaves nothing.
func TestFilterTerms(t *testing.T) {
	idx, _ := dictIndex("a", "b", "c")
	all := []string{"c", "a", "b"}
	if got := filter(all, idx, holds, new([]string)); len(got) != 3 || &got[0] != &all[0] {
		t.Fatalf("all present: got %v, want the input slice itself", got)
	}
	some := []string{"z", "c", "y", "a", "x"}
	before := append([]string(nil), some...)
	if got := filter(some, idx, holds, new([]string)); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("some absent: got %v, want [c a]", got)
	}
	if !reflect.DeepEqual(some, before) {
		t.Fatalf("the shared term set was written: %v", some)
	}
	if got := filter([]string{"z", "y"}, idx, holds, new([]string)); len(got) != 0 {
		t.Fatalf("none present: got %v, want nothing", got)
	}
}

var filterAlphabet = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// randomTree draws an AND/OR tree over filterAlphabet holding at most
// *budget term occurrences (and at least one).
func randomTree(rng *rand.Rand, depth int, budget *int) *query.Node {
	if depth == 0 || *budget <= 1 || rng.Intn(3) == 0 {
		*budget--
		return query.Term(filterAlphabet[rng.Intn(len(filterAlphabet))])
	}
	var kids []*query.Node
	for n := 2 + rng.Intn(3); n > 0 && *budget > 0; n-- {
		kids = append(kids, randomTree(rng, depth-1, budget))
	}
	if rng.Intn(2) == 0 {
		return query.And(kids...)
	}
	return query.Or(kids...)
}

// checkFilterVsPrune holds the filters to the reference: filtering the
// normal form gives what pruning the tree and normalising the rest gives,
// deep-equal, without writing the shared form, and hands the shared slice
// back whenever the reference reports the tree intact.
func checkFilterVsPrune(t *testing.T, node *query.Node, dict []string) (dropped, emptied bool) {
	t.Helper()
	idx, has := dictIndex(dict...)
	pruned := pruneForShard(node, has)
	if node.Op == query.OpSparse {
		terms := node.Terms()
		before := append([]string(nil), terms...)
		got := filter(terms, idx, holds, new([]string))
		var want []string
		if pruned != nil {
			want = pruned.Terms()
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s over %v: filter = %v, pruned tree's terms = %v", node, dict, got, want)
		}
		if !reflect.DeepEqual(terms, before) {
			t.Fatalf("%s over %v: the shared term set was written", node, dict)
		}
		return len(got) != len(terms), len(got) == 0
	}
	dnf := node.DNF()
	before := node.DNF()
	got := filter(dnf, idx, holdsAll, new([][]string))
	var want [][]string
	if pruned != nil {
		want = pruned.DNF()
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s over %v:\nfilter(DNF)  = %v\nprune().DNF() = %v", node, dict, got, want)
	}
	if !reflect.DeepEqual(dnf, before) {
		t.Fatalf("%s over %v: the shared normal form was written", node, dict)
	}
	if pruned == node && &got[0] != &dnf[0] {
		t.Fatalf("%s over %v: nothing pruned, but the filter copied the normal form", node, dict)
	}
	return len(got) != len(dnf), len(got) == 0
}

// TestFilterMatchesPrune is the property the per-shard filter rests on, over
// seeded random AND/OR trees within the term limit and random dictionaries.
func TestFilterMatchesPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var trees, dropped, emptied int
	for trees < 20_000 {
		budget := 1 + rng.Intn(query.MaxTerms)
		node := randomTree(rng, 4, &budget)
		var dict []string
		keep := rng.Intn(5) // of 4: from "most terms absent" to "every term present"
		for _, term := range filterAlphabet {
			if rng.Intn(4) < keep {
				dict = append(dict, term)
			}
		}
		d, e := checkFilterVsPrune(t, node, dict)
		trees++
		if d {
			dropped++
		}
		if e {
			emptied++
		}
	}
	// The draw must reach all three outcomes in bulk, or it proves little.
	if intact := trees - dropped; intact < trees/10 || dropped-emptied < trees/10 || emptied < trees/10 {
		t.Fatalf("%d trees: %d intact, %d narrowed, %d emptied — the draw is lopsided", trees, intact, dropped-emptied, emptied)
	}
}

// FuzzFilterVsPrune is the same property over whatever the parser accepts
// within the term limit, SPARSE included: bit i of mask puts the expression's
// i-th distinct term in the shard's dictionary.
func FuzzFilterVsPrune(f *testing.F) {
	f.Add(`"a"`, uint32(0))
	f.Add(`"a" AND ("b" OR "z")`, uint32(0b011))
	f.Add(`("a" OR "b") AND ("c" OR "d") AND ("a" OR "d")`, uint32(0b1011))
	f.Add(`"a" OR ("a" AND "b") OR "c"`, uint32(0b101))
	f.Add(`("a" AND "b") OR ("c" AND ("d" OR "e" OR "a"))`, uint32(0b10111))
	f.Add(`SPARSE("a", "b", "c", "a")`, uint32(0b101))
	f.Add(`SPARSE("a")`, uint32(0))
	f.Fuzz(func(t *testing.T, src string, mask uint32) {
		node, err := query.Parse(src)
		if err != nil || node.CountTerms() > query.MaxTerms {
			return
		}
		var dict []string
		seen := map[string]bool{}
		for _, term := range node.Terms() {
			if !seen[term] {
				if mask&(1<<uint(len(seen))) != 0 {
					dict = append(dict, term)
				}
				seen[term] = true
			}
		}
		checkFilterVsPrune(t, node, dict)
	})
}

// pruneForShard is the reference the filters are held to, and until they
// replaced it what runShard ran: it rewrites the expression tree for a shard
// where some terms may be absent — a conjunction containing an absent term
// matches nothing, a disjunction drops absent branches — and returns nil when
// the shard cannot match anything, the node itself when nothing was pruned.
func pruneForShard(node *query.Node, has map[string]struct{}) *query.Node {
	switch node.Op {
	case query.OpTerm:
		if _, ok := has[node.Term]; ok {
			return node
		}
		return nil
	case query.OpAnd:
		kept := make([]*query.Node, 0, len(node.Children))
		changed := false
		for _, c := range node.Children {
			p := pruneForShard(c, has)
			if p == nil {
				return nil // one empty operand empties the conjunction
			}
			if p != c {
				changed = true
			}
			kept = append(kept, p)
		}
		if !changed {
			// Nothing pruned: hand back the original node so the caller can
			// recognize the query survived intact and reuse its shared DNF.
			return node
		}
		return query.And(kept...)
	case query.OpOr:
		kept := make([]*query.Node, 0, len(node.Children))
		changed := false
		for _, c := range node.Children {
			p := pruneForShard(c, has)
			if p == nil {
				changed = true
				continue
			}
			if p != c {
				changed = true
			}
			kept = append(kept, p)
		}
		if len(kept) == 0 {
			return nil
		}
		if !changed {
			return node
		}
		return query.Or(kept...)
	case query.OpSparse:
		// Sparse queries drop absent terms per shard (a missing term just
		// contributes no impact); a shard holding none of them cannot
		// match anything.
		kept := make([]*query.Node, 0, len(node.Children))
		changed := false
		for _, c := range node.Children {
			if _, ok := has[c.Term]; ok {
				kept = append(kept, c)
			} else {
				changed = true
			}
		}
		if len(kept) == 0 {
			return nil
		}
		if !changed {
			return node
		}
		return &query.Node{Op: query.OpSparse, Children: kept}
	default:
		return nil
	}
}
