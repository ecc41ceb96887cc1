package topk

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func selectors(k int) map[string]Selector {
	return map[string]Selector{
		"heap":  NewHeap(k),
		"shift": NewShiftRegister(k),
	}
}

func TestBasicTopK(t *testing.T) {
	for name, s := range selectors(3) {
		t.Run(name, func(t *testing.T) {
			s.Insert(1, 1.0)
			s.Insert(2, 5.0)
			s.Insert(3, 3.0)
			s.Insert(4, 4.0)
			s.Insert(5, 0.5)
			got := s.Results()
			want := []Entry{{2, 5.0}, {4, 4.0}, {3, 3.0}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results = %v, want %v", got, want)
			}
		})
	}
}

func TestThreshold(t *testing.T) {
	for name, s := range selectors(2) {
		t.Run(name, func(t *testing.T) {
			if !math.IsInf(s.Threshold(), -1) {
				t.Fatal("threshold of empty queue should be -Inf")
			}
			s.Insert(1, 3.0)
			if !math.IsInf(s.Threshold(), -1) {
				t.Fatal("threshold of non-full queue should be -Inf")
			}
			s.Insert(2, 7.0)
			if s.Threshold() != 3.0 {
				t.Fatalf("threshold = %v, want 3", s.Threshold())
			}
			s.Insert(3, 5.0)
			if s.Threshold() != 5.0 {
				t.Fatalf("threshold after displacement = %v, want 5", s.Threshold())
			}
			if !s.Full() {
				t.Fatal("queue should report full")
			}
		})
	}
}

func TestTieBreakByDocID(t *testing.T) {
	for name, s := range selectors(2) {
		t.Run(name, func(t *testing.T) {
			s.Insert(9, 2.0)
			s.Insert(4, 2.0)
			s.Insert(7, 2.0)
			got := s.Results()
			want := []Entry{{4, 2.0}, {7, 2.0}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tie-break results = %v, want %v", got, want)
			}
		})
	}
}

func TestKOne(t *testing.T) {
	for name, s := range selectors(1) {
		t.Run(name, func(t *testing.T) {
			s.Insert(1, 1)
			s.Insert(2, 9)
			s.Insert(3, 5)
			got := s.Results()
			if len(got) != 1 || got[0].DocID != 2 {
				t.Fatalf("k=1 results = %v", got)
			}
		})
	}
}

func TestZeroKPanics(t *testing.T) {
	for _, ctor := range []func(){func() { NewHeap(0) }, func() { NewShiftRegister(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("k=0 should panic")
				}
			}()
			ctor()
		}()
	}
}

func TestFewerThanKInsertions(t *testing.T) {
	for name, s := range selectors(100) {
		t.Run(name, func(t *testing.T) {
			s.Insert(5, 1.5)
			s.Insert(3, 2.5)
			got := s.Results()
			want := []Entry{{3, 2.5}, {5, 1.5}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results = %v, want %v", got, want)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

// referenceTopK computes top-k by full sort, the ground truth.
func referenceTopK(entries []Entry, k int) []Entry {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func TestAgainstReferenceProperty(t *testing.T) {
	f := func(seed int64, kSeed uint8, nSeed uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kSeed)%50 + 1
		n := int(nSeed) % 500
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{
				DocID: uint32(rng.Intn(1 << 20)),
				Score: float64(rng.Intn(64)) / 4, // coarse scores force ties
			}
		}
		want := referenceTopK(entries, k)
		for _, s := range []Selector{NewHeap(k), NewShiftRegister(k)} {
			for _, e := range entries {
				s.Insert(e.DocID, e.Score)
			}
			got := s.Results()
			if len(got) == 0 && len(want) == 0 {
				continue // nil vs empty slice are the same result
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapAndShiftAgreeOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := NewHeap(1000)
	q := NewShiftRegister(1000)
	for i := 0; i < 20000; i++ {
		d := uint32(i)
		s := rng.Float64() * 30
		h.Insert(d, s)
		q.Insert(d, s)
	}
	if !reflect.DeepEqual(h.Results(), q.Results()) {
		t.Fatal("heap and shift register disagree")
	}
	if h.Threshold() != q.Threshold() {
		t.Fatalf("thresholds disagree: %v vs %v", h.Threshold(), q.Threshold())
	}
}

func TestShiftRegisterActivityCounters(t *testing.T) {
	q := NewShiftRegister(4)
	// Ascending scores: every insert lands at the head and shifts the rest.
	for i := 0; i < 4; i++ {
		q.Insert(uint32(i), float64(i))
	}
	if q.Inserts() != 4 {
		t.Fatalf("inserts = %d", q.Inserts())
	}
	if q.Shifts() == 0 {
		t.Fatal("ascending insertions must cause shifts")
	}
	// An insert below the threshold causes no shifts.
	before := q.Shifts()
	q.Insert(99, -1)
	if q.Shifts() != before {
		t.Fatal("rejected insert should not shift")
	}
}

func TestThresholdNeverDecreases(t *testing.T) {
	f := func(scores []float64) bool {
		q := NewShiftRegister(8)
		prev := math.Inf(-1)
		for i, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			q.Insert(uint32(i), s)
			th := q.Threshold()
			if th < prev {
				return false
			}
			prev = th
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// onePieceQueue is ShiftRegisterQueue.Insert as it was before it was split
// into an inlinable reject over insertSlow: the reference the split must
// match slot for slot and count for count.
type onePieceQueue struct {
	k               int
	slots           []Entry
	inserts, shifts int64
}

func (q *onePieceQueue) insert(docID uint32, score float64) {
	q.inserts++
	e := Entry{DocID: docID, Score: score}
	if len(q.slots) == q.k && !less(e, q.slots[q.k-1]) {
		return
	}
	pos := sort.Search(len(q.slots), func(i int) bool { return less(e, q.slots[i]) })
	if pos == len(q.slots) {
		if len(q.slots) < q.k {
			q.slots = append(q.slots, e)
		}
		return
	}
	if len(q.slots) < q.k {
		q.slots = append(q.slots, Entry{})
	}
	q.shifts += int64(len(q.slots) - pos - 1)
	copy(q.slots[pos+1:], q.slots[pos:len(q.slots)-1])
	q.slots[pos] = e
}

func (q *onePieceQueue) threshold() float64 {
	if len(q.slots) < q.k {
		return math.Inf(-1)
	}
	return q.slots[len(q.slots)-1].Score
}

// TestInsertSplitMatchesOnePiece: after every offer of streams dense in score
// ties, docID ties, infinities and NaNs, the split Insert leaves the same
// slots (bit for bit), Inserts(), Shifts(), Threshold() and Full() as the
// one-piece implementation — through Reset to other depths as well.
func TestInsertSplitMatchesOnePiece(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	q := NewShiftRegister(1)
	for _, k := range []int{1, 2, 7, 64} {
		q.Reset(k)
		ref := &onePieceQueue{k: k}
		for i := 0; i < 4000; i++ {
			s := float64(rng.Intn(12)) // few distinct scores: ties with the tail are common
			switch r := rng.Intn(20); {
			case r == 0:
				s = special[rng.Intn(len(special))]
			case r < 6:
				s = rng.NormFloat64() * 4
			}
			d := uint32(rng.Intn(64))
			q.Insert(d, s)
			ref.insert(d, s)
			if q.Inserts() != ref.inserts || q.Shifts() != ref.shifts || q.Len() != len(ref.slots) || q.Full() != (len(ref.slots) >= k) {
				t.Fatalf("k=%d offer %d (%d, %v): counters diverged: inserts %d/%d shifts %d/%d len %d/%d",
					k, i, d, s, q.Inserts(), ref.inserts, q.Shifts(), ref.shifts, q.Len(), len(ref.slots))
			}
			if math.Float64bits(q.Threshold()) != math.Float64bits(ref.threshold()) {
				t.Fatalf("k=%d offer %d (%d, %v): threshold %v, one-piece %v", k, i, d, s, q.Threshold(), ref.threshold())
			}
			for j, e := range q.Results() {
				if w := ref.slots[j]; e.DocID != w.DocID || math.Float64bits(e.Score) != math.Float64bits(w.Score) {
					t.Fatalf("k=%d offer %d (%d, %v): slot %d holds %+v, one-piece %+v", k, i, d, s, j, e, w)
				}
			}
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = rng.Float64() * 20
	}
	b.Run("heap-k1000", func(b *testing.B) {
		s := NewHeap(1000)
		for i := 0; i < b.N; i++ {
			s.Insert(uint32(i), scores[i%len(scores)])
		}
	})
	b.Run("shift-k1000", func(b *testing.B) {
		s := NewShiftRegister(1000)
		for i := 0; i < b.N; i++ {
			s.Insert(uint32(i), scores[i%len(scores)])
		}
	})
}
