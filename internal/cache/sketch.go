package cache

import (
	"math/bits"
	"sync/atomic"
)

// sketch is TinyLFU's frequency estimator (Einziger, Friedman & Manes, ACM
// TOS 2017): a count-min sketch of sketchRows rows of 4-bit saturating
// counters. A key's estimate is the smallest of its four counters, so it is
// never below the number of times the key was counted since the last aging
// step (up to the ceiling, 15), and above it only where every row collides.
// Every sampleFactor × width misses the shard holding it ages the sketch —
// halves every counter — so that a block hot long ago fades.
//
// A key's four counters share one word: its hash picks the word, and in it
// one of four counters in each row's 16-bit lane. Counting a key is then one
// CAS on one word, and the hit arm, which counts without a lock, touches one
// cache line and no shared counter. Counting misses and aging run under the
// owning shard's mutex.
type sketch struct {
	words  []atomic.Uint64
	shift  uint  // 64 - log2(len(words)): a hash's top bits pick the word
	misses int64 // misses counted since the last aging step, roughly
	sample int64 // misses between aging steps
}

const (
	sketchRows = 4
	// wordsPerEntry is sketch words per block the shard holds, rounded up to
	// a power of two. Replaying a recorded conj-spill block trace, 1 and 4
	// gave posting hit rates of 0.785 and 0.802.
	wordsPerEntry = 4
	sampleFactor  = 10
	counterMax    = 15
	// halfMask keeps the three low bits of each 4-bit counter: a word shifted
	// right by one and masked with it is every counter halved.
	halfMask = 0x7777777777777777
)

// newSketch returns a sketch for a shard that holds entries blocks:
// wordsPerEntry words a block, rounded up to a power of two, and at least
// 16. A row is then four counters a word wide.
func newSketch(entries int) *sketch {
	n := 1 << bits.Len(uint(max(wordsPerEntry*entries, 16)-1))
	return &sketch{
		words:  make([]atomic.Uint64, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
		sample: sampleFactor * 4 * int64(n),
	}
}

// keyHash mixes every field of a key, the class included, into the 64 bits
// the sketch indexes by.
func keyHash(k Key) uint64 {
	h := k.List*0x9E3779B97F4A7C15 ^ (uint64(k.Block)+1)*0xBF58476D1CE4E5B9 ^ (uint64(k.Class)+1)*0x94D049BB133111EB
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// counterAt returns the bit offset, within the key's word, of row r's
// counter for hash h: lane r, counter h's bits 2r and 2r+1.
func counterAt(r int, h uint64) uint { return uint(16*r) + uint(h>>(2*r)&3)*4 }

// add counts one occurrence of the key with hash h.
func (sk *sketch) add(h uint64) {
	w := &sk.words[h>>sk.shift]
	for {
		old := w.Load()
		next := old
		for r := range sketchRows {
			if at := counterAt(r, h); next>>at&counterMax < counterMax {
				next += 1 << at
			}
		}
		if next == old || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// addMiss counts a miss of the key with hash h, and ages the sketch once
// sample misses have accrued since the last aging step. The caller holds
// the owning shard's mutex; a concurrent add lands before or after its
// word's halving, never inside it.
func (sk *sketch) addMiss(h uint64) {
	sk.add(h)
	if sk.misses++; sk.misses < sk.sample {
		return
	}
	for i := range sk.words {
		w := &sk.words[i]
		for old := w.Load(); !w.CompareAndSwap(old, old>>1&halfMask); old = w.Load() {
		}
	}
	sk.misses /= 2
}

// estimate returns the key's count: the smallest of its counters.
func (sk *sketch) estimate(h uint64) int {
	w := sk.words[h>>sk.shift].Load()
	est := counterMax
	for r := range sketchRows {
		est = min(est, int(w>>counterAt(r, h)&counterMax))
	}
	return est
}
