package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// QueryType identifies one of the six query shapes of Table II.
type QueryType int

// Query types per Table II of the paper, plus the Q7 sparse-dot family
// (impact-ordered retrieval; not part of Table II, so AllQueryTypes and
// the figure harness exclude it).
const (
	Q1 QueryType = iota + 1 // 1 term:  A
	Q2                      // 2 terms: A AND B
	Q3                      // 2 terms: A OR B
	Q4                      // 4 terms: A AND B AND C AND D
	Q5                      // 4 terms: A OR B OR C OR D
	Q6                      // 4 terms: A AND (B OR C OR D)
	Q7                      // 8 terms: SPARSE(A, ..., H)
)

// String returns "Q1".."Q7".
func (q QueryType) String() string { return fmt.Sprintf("Q%d", int(q)) }

// NumTerms reports the term count of the query type.
func (q QueryType) NumTerms() int {
	switch q {
	case Q1:
		return 1
	case Q2, Q3:
		return 2
	case Q4, Q5, Q6:
		return 4
	case Q7:
		return 8
	default:
		return 0
	}
}

// Operation returns the Table II operation pattern with the placeholder
// letters A..D.
func (q QueryType) Operation() string {
	switch q {
	case Q1:
		return "A"
	case Q2:
		return "A AND B"
	case Q3:
		return "A OR B"
	case Q4:
		return "A AND B AND C AND D"
	case Q5:
		return "A OR B OR C OR D"
	case Q6:
		return "A AND (B OR C OR D)"
	case Q7:
		return "SPARSE(A, ..., H)"
	default:
		return "?"
	}
}

// AllQueryTypes lists Q1..Q6 in order — the Table II families. Q7 is
// deliberately excluded: the figure harness iterates this list, and the
// sparse family is measured by bench/'s sparse-q7 workload.
func AllQueryTypes() []QueryType {
	return []QueryType{Q1, Q2, Q3, Q4, Q5, Q6}
}

// Query is a typed query over concrete corpus terms.
type Query struct {
	Type  QueryType
	Terms []string
	// Expr is the query in the paper's offloading-API expression syntax,
	// e.g. `"t3" AND ("t17" OR "t42" OR "t9")`.
	Expr string
}

// buildExpr renders the type's operation pattern over concrete terms.
func buildExpr(t QueryType, terms []string) string {
	quoted := make([]string, len(terms))
	for i, term := range terms {
		quoted[i] = `"` + term + `"`
	}
	switch t {
	case Q1:
		return quoted[0]
	case Q2:
		return quoted[0] + " AND " + quoted[1]
	case Q3:
		return quoted[0] + " OR " + quoted[1]
	case Q4:
		return strings.Join(quoted, " AND ")
	case Q5:
		return strings.Join(quoted, " OR ")
	case Q6:
		return quoted[0] + " AND (" + strings.Join(quoted[1:], " OR ") + ")"
	case Q7:
		return "SPARSE(" + strings.Join(quoted, ", ") + ")"
	default:
		panic("corpus: unknown query type")
	}
}

// SampleQueries draws n queries of the given type from the corpus
// vocabulary. Term ranks are sampled log-uniformly so the mix spans common
// and rare terms, like the TREC Terabyte-Track terms the paper samples; terms
// within one query are distinct.
func SampleQueries(c *Corpus, t QueryType, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed ^ int64(t)<<32))
	if len(c.Terms) == 0 {
		panic("corpus: empty corpus")
	}
	// TREC topic terms are ordinary words: bias sampling toward the common
	// quarter of the vocabulary (still log-uniform across its decades).
	maxRank := len(c.Terms) / 4
	if maxRank < 8 {
		maxRank = len(c.Terms)
	}
	queries := make([]Query, n)
	for i := range queries {
		k := t.NumTerms()
		terms := make([]string, 0, k)
		used := make(map[int]struct{}, k)
		for len(terms) < k {
			rank := logUniformInt(rng, maxRank) - 1
			if _, dup := used[rank]; dup {
				continue
			}
			used[rank] = struct{}{}
			terms = append(terms, c.Terms[rank].Term)
		}
		queries[i] = Query{Type: t, Terms: terms, Expr: buildExpr(t, terms)}
	}
	return queries
}

// SampleZipfQueries draws n queries of the given type with term ranks
// following the corpus's own Zipf popularity (P(rank) ~ rank^-s): the
// queries hit terms with the frequency real traffic hits them, which is
// what makes cross-query block reuse representative. Terms within one
// query are distinct.
func SampleZipfQueries(c *Corpus, t QueryType, n int, s float64, seed int64) []Query {
	if len(c.Terms) == 0 {
		panic("corpus: empty corpus")
	}
	if s <= 1 {
		s = 1.07 // the corpus generator's default term-popularity exponent
	}
	rng := rand.New(rand.NewSource(seed ^ int64(t)<<32))
	zipf := rand.NewZipf(rng, s, 1, uint64(len(c.Terms)-1))
	queries := make([]Query, n)
	for i := range queries {
		k := t.NumTerms()
		terms := make([]string, 0, k)
		used := make(map[int]struct{}, k)
		for len(terms) < k {
			rank := int(zipf.Uint64())
			if _, dup := used[rank]; dup {
				continue
			}
			used[rank] = struct{}{}
			terms = append(terms, c.Terms[rank].Term)
		}
		queries[i] = Query{Type: t, Terms: terms, Expr: buildExpr(t, terms)}
	}
	return queries
}

// SampleWorkload draws n queries of each of the six types, mirroring the
// paper's 100-per-shape TREC sample.
func SampleWorkload(c *Corpus, perType int, seed int64) map[QueryType][]Query {
	w := make(map[QueryType][]Query, 6)
	for _, t := range AllQueryTypes() {
		w[t] = SampleQueries(c, t, perType, seed)
	}
	return w
}
