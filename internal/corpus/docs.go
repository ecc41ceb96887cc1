package corpus

import "boss/internal/docstore"

// Synthetic document payloads for the fetch phase. The posting sampler
// generates term statistics but no document bytes; DocText synthesizes
// them on demand — deterministically from (seed, docID) so every shard,
// replica, and rerun packs byte-identical stores — with the document
// sized from the same per-document length statistics (DocLens) that
// drive BM25 normalization. Tokens are drawn Zipf-ish from the term-rank
// space, so payloads have the vocabulary skew of real text and compress
// like it.

// docTextTokenCap bounds the token count of one synthetic document so a
// lognormal-tail docLen cannot make a single payload dominate a packed
// block.
const docTextTokenCap = 2048

// splitmix64 is the same seeded mixer the resilience layer uses for
// deterministic per-item randomness without shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DocText appends docID's synthetic payload to dst and returns the
// extended slice. docLen is the document's token count from the sampler
// (Corpus.DocLens[docID]); vocab is the corpus vocabulary size
// (Spec.NumTerms). The bytes depend only on (seed, docID, docLen,
// vocab): sharding, fetch order, and caching cannot change them.
func DocText(seed int64, docID uint32, docLen uint32, vocab int, dst []byte) []byte {
	if vocab < 1 {
		vocab = 1
	}
	tokens := int(docLen)
	if tokens > docTextTokenCap {
		tokens = docTextTokenCap
	}
	if tokens < 1 {
		tokens = 1
	}
	state := splitmix64(uint64(seed) ^ uint64(docID)*0x9E3779B97F4A7C15)
	for i := 0; i < tokens; i++ {
		state = splitmix64(state)
		// Squared-uniform rank: low ranks (frequent terms) dominate, an
		// inexpensive stand-in for the sampler's Zipf document frequencies.
		u := float64(state>>11) / (1 << 53)
		rank := int(u * u * float64(vocab))
		if rank >= vocab {
			rank = vocab - 1
		}
		dst = append(dst, 't')
		dst = appendUint(dst, uint32(rank))
		dst = append(dst, ' ')
	}
	return dst
}

// DocStore packs the synthetic documents [lo, hi) of a corpus generated
// from spec, whose per-document lengths are docLens (indexed by global
// docID), into a document store with fields "name" and "text": local
// document i is global docID lo+i.
func DocStore(spec Spec, docLens []uint32, lo, hi uint32) (*docstore.Store, error) {
	b := docstore.NewBuilder("name", "text")
	var name, text []byte
	for id := lo; id < hi; id++ {
		name = DocName(name[:0], id)
		text = DocText(spec.Seed, id, docLens[id], spec.NumTerms, text[:0])
		if err := b.Add(name, text); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// DocName appends the canonical synthetic name for docID ("doc<id>").
func DocName(dst []byte, docID uint32) []byte {
	dst = append(dst, 'd', 'o', 'c')
	return appendUint(dst, docID)
}

// appendUint appends the decimal form of v without strconv allocation.
func appendUint(dst []byte, v uint32) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var tmp [10]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[i:]...)
}
