package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// counters returns every 4-bit counter of the sketch, word by word.
func counters(sk *sketch) []int {
	out := make([]int, 0, 16*len(sk.words))
	for i := range sk.words {
		w := sk.words[i].Load()
		for at := 0; at < 64; at += 4 {
			out = append(out, int(w>>at&counterMax))
		}
	}
	return out
}

// TestSketchNeverUnderestimates counts 3,000 keys a random number of times
// each, below the counters' ceiling and with no aging step, and requires
// every estimate to be at least the true count — and most of them exact, at
// the size a shard of 1,000 entries gets.
func TestSketchNeverUnderestimates(t *testing.T) {
	sk := newSketch(1000)
	rng := rand.New(rand.NewSource(1))
	want := make(map[Key]int)
	for i := range 3000 {
		k := Key{List: uint64(rng.Intn(50)), Block: uint32(i), Class: uint8(i % 2)}
		want[k] = 1 + rng.Intn(counterMax-1)
	}
	for k, n := range want {
		for range n {
			sk.add(keyHash(k))
		}
	}
	exact := 0
	for k, n := range want {
		est := sk.estimate(keyHash(k))
		if est < n {
			t.Fatalf("key %v counted %d times, estimated %d", k, n, est)
		}
		if est == n {
			exact++
		}
	}
	if exact < len(want)*9/10 {
		t.Fatalf("only %d of %d estimates exact", exact, len(want))
	}
}

// TestSketchAgingHalves checks the miss that completes a sample counts
// itself and then halves every counter, rounding down, and the miss count;
// the misses before it age nothing.
func TestSketchAgingHalves(t *testing.T) {
	sk := newSketch(100)
	rng := rand.New(rand.NewSource(2))
	for range 20 * len(sk.words) {
		sk.add(keyHash(Key{List: uint64(rng.Intn(300)), Block: uint32(rng.Intn(4))}))
	}
	before := counters(sk)
	saturated := 0
	for _, n := range before {
		if n == counterMax {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("no counter reached the ceiling: the test does not cover halving 15")
	}
	h := keyHash(Key{List: 1, Block: 1})
	sk.misses = sk.sample - 2
	sk.addMiss(h) // one short of the sample: counts, ages nothing
	for r := range sketchRows {
		if i := int(h>>sk.shift)*16 + int(counterAt(r, h)/4); before[i] < counterMax {
			before[i]++
		}
	}
	if got := counters(sk); !slices.Equal(got, before) || sk.misses != sk.sample-1 {
		t.Fatalf("a miss short of the sample changed more than its own counters, or left %d misses", sk.misses)
	}
	sk.addMiss(h)
	for r := range sketchRows {
		if i := int(h>>sk.shift)*16 + int(counterAt(r, h)/4); before[i] < counterMax {
			before[i]++
		}
	}
	for i, n := range counters(sk) {
		if n != before[i]/2 {
			t.Fatalf("counter %d: %d after aging, was %d", i, n, before[i])
		}
	}
	if sk.misses != sk.sample/2 {
		t.Fatalf("%d misses after aging, want half the sample, %d", sk.misses, sk.sample/2)
	}
}

// TestSketchSaturates counts one key far past the ceiling: its four
// counters stop at 15 and no carry reaches a neighbour.
func TestSketchSaturates(t *testing.T) {
	sk := newSketch(100)
	h := keyHash(Key{List: 7, Block: 3})
	for range 100 {
		sk.add(h)
	}
	if est := sk.estimate(h); est != counterMax {
		t.Fatalf("estimate %d after 100 additions, want %d", est, counterMax)
	}
	sum := 0
	for _, n := range counters(sk) {
		sum += n
	}
	if sum != sketchRows*counterMax {
		t.Fatalf("counters sum to %d, want one saturated counter per row (%d)", sum, sketchRows*counterMax)
	}
}

// TestSketchClassInHash checks the class is part of a key's hash: a posting
// block and the document block of the same list and index count apart.
func TestSketchClassInHash(t *testing.T) {
	sk := newSketch(100)
	post, doc := Key{List: 9, Block: 4}, Key{List: 9, Block: 4, Class: ClassDoc}
	if keyHash(post) == keyHash(doc) {
		t.Fatal("the class does not change the hash")
	}
	for range 10 {
		sk.add(keyHash(post))
	}
	if est := sk.estimate(keyHash(doc)); est != 0 {
		t.Fatalf("document block estimated %d after only its posting twin was added", est)
	}
}

// TestSketchAllocs pins that counting and estimating allocate nothing: they
// run under a shard's mutex on every publish, and add on the hit path.
func TestSketchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under -race")
	}
	sk := newSketch(1000)
	h := keyHash(Key{List: 1, Block: 2})
	if avg := testing.AllocsPerRun(1000, func() {
		sk.add(h)
		sk.addMiss(h)
		_ = sk.estimate(h)
	}); avg != 0 {
		t.Fatalf("add + addMiss + estimate allocate %v times, want 0", avg)
	}
}
