// Package topk implements top-k selection two ways: a software binary heap
// (what a host CPU runs, and what the Lucene baseline uses) and a model of
// BOSS's shift-register hardware priority queue, where an inserted entry is
// broadcast to all k slots and each slot locally decides to keep, shift, or
// load (Section IV-C, Top-k Module). Both produce identical results.
//
// Ordering: higher score first; ties broken toward the smaller docID so
// every implementation in the repository agrees on the exact result set.
package topk

import (
	"math"
	"slices"
)

// Entry is one scored document.
type Entry struct {
	DocID uint32
	Score float64
}

// Less reports whether a ranks strictly better than b: the one order every
// selector, root merge and reference in the repository ranks by.
func Less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// compare is Less as a three-way comparator for slices.SortFunc. DocIDs in
// one ranking are distinct, so no two entries compare equal.
func compare(a, b Entry) int {
	if Less(a, b) {
		return -1
	}
	if Less(b, a) {
		return 1
	}
	return 0
}

// Selector accumulates scored documents and retains the best k.
type Selector interface {
	// Insert offers a scored document.
	Insert(docID uint32, score float64)
	// Threshold reports the current cutoff: the worst score in the queue
	// once full, or -Inf while the queue still has room. Early-termination
	// algorithms compare upper bounds against this.
	Threshold() float64
	// Full reports whether k entries are held.
	Full() bool
	// Results returns the retained entries, best first.
	Results() []Entry
	// Len reports the number of retained entries.
	Len() int
}

// --- software heap ---

// heapSelector is a size-bounded min-heap (worst retained entry at the
// root), the standard software top-k structure.
type heapSelector struct {
	k       int
	entries entryHeap
}

// NewHeap returns a software top-k selector retaining k entries.
func NewHeap(k int) Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &heapSelector{k: k}
}

// entryHeap is a min-heap by rank: the *worst* entry is at the root. The
// sift operations are open-coded rather than going through container/heap —
// its interface{} methods box every Entry pushed, and Insert runs once per
// scored document on the serving path.
type entryHeap []Entry

// worse reports whether h[i] ranks strictly worse than h[j].
func (h entryHeap) worse(i, j int) bool { return Less(h[j], h[i]) }

func (h entryHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h entryHeap) down(i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

//boss:hotpath one call per scored document on the software serving path.
func (s *heapSelector) Insert(docID uint32, score float64) {
	e := Entry{DocID: docID, Score: score}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, e)
		s.entries.up(len(s.entries) - 1)
		return
	}
	if Less(e, s.entries[0]) {
		s.entries[0] = e
		s.entries.down(0)
	}
}

func (s *heapSelector) Threshold() float64 {
	if len(s.entries) < s.k {
		return math.Inf(-1)
	}
	return s.entries[0].Score
}

func (s *heapSelector) Full() bool { return len(s.entries) >= s.k }
func (s *heapSelector) Len() int   { return len(s.entries) }

func (s *heapSelector) Results() []Entry {
	out := slices.Clone(s.entries)
	slices.SortFunc(out, compare)
	return out
}

// --- hardware shift-register queue ---

// ShiftRegisterQueue models BOSS's hardware priority queue: k entries held
// in rank order in a shift register. An insertion is broadcast to every
// slot; slots below the insertion point shift toward the tail (dropping the
// last), and the slot at the insertion point loads the new entry. The model
// keeps the same results as the heap.
type ShiftRegisterQueue struct {
	k     int
	slots []Entry // rank order, best first
	// cutoff is Threshold(), kept current by insertSlow and Reset: the tail
	// slot's score once full, -Inf before. Insert's inlined reject and the
	// early-termination loops read it without touching the slots.
	cutoff float64
}

// NewShiftRegister returns a hardware-model top-k queue with k slots.
func NewShiftRegister(k int) *ShiftRegisterQueue {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &ShiftRegisterQueue{k: k, slots: make([]Entry, 0, k), cutoff: math.Inf(-1)}
}

var _ Selector = (*ShiftRegisterQueue)(nil)

// Reset empties the queue and re-sizes it to k slots, keeping the backing
// array so pooled queues do not re-allocate per query.
func (q *ShiftRegisterQueue) Reset(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	q.k = k
	if cap(q.slots) < k {
		q.slots = make([]Entry, 0, k)
	} else {
		q.slots = q.slots[:0]
	}
	q.cutoff = math.Inf(-1)
}

// Insert offers a scored document; each call models one broadcast cycle.
//
// It is split so the common case inlines into the operators' document loops:
// an offer scoring strictly below the cutoff (a full queue's tail) cannot be
// admitted, and on the ranked-or workload nine offers in ten end there.
// Everything else — room left, a better score, a tie with the tail, a NaN on
// either side — goes to insertSlow, which decides exactly as the one-piece
// Insert did.
//
//boss:hotpath one call per scored document (the top-k module's broadcast).
func (q *ShiftRegisterQueue) Insert(docID uint32, score float64) {
	if score < q.cutoff {
		return
	}
	q.insertSlow(docID, score)
}

// insertSlow finds the offer's slot and shifts the ones below it tailward.
//
//boss:hotpath one call per offer the tail's score does not rule out.
func (q *ShiftRegisterQueue) insertSlow(docID uint32, score float64) {
	e := Entry{DocID: docID, Score: score}
	// Reject: a full queue whose tail outranks e cannot admit it. This is
	// exactly the binary search landing at pos == len(q.slots), so no slot
	// state changes — it skips the O(log k) probe for docID ties, and keeps
	// a NaN (which Less never ranks above anything) from steering the search
	// into the middle of the register.
	if len(q.slots) == q.k && !Less(e, q.slots[q.k-1]) {
		return
	}
	// Find insertion point: the first slot that e outranks. Open-coded
	// binary search rather than sort.Search — the closure the latter takes
	// is an allocation hazard the hot path must not rely on escape
	// analysis to dodge (hotpathalloc).
	lo, hi := 0, len(q.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Less(e, q.slots[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pos := lo
	if len(q.slots) < q.k {
		q.slots = append(q.slots, Entry{})
	}
	// Slots from pos to the end shift one position tailward (none when e
	// lands on the fresh tail slot).
	copy(q.slots[pos+1:], q.slots[pos:len(q.slots)-1])
	q.slots[pos] = e
	if len(q.slots) == q.k {
		q.cutoff = q.slots[q.k-1].Score
	}
}

// Threshold reports the cutoff score (see Selector).
func (q *ShiftRegisterQueue) Threshold() float64 { return q.cutoff }

// Full reports whether all k slots hold entries.
func (q *ShiftRegisterQueue) Full() bool { return len(q.slots) >= q.k }

// Len reports the number of occupied slots.
func (q *ShiftRegisterQueue) Len() int { return len(q.slots) }

// Results returns the retained entries, best first, in a fresh slice.
func (q *ShiftRegisterQueue) Results() []Entry {
	return q.AppendResults(make([]Entry, 0, len(q.slots)))
}

// AppendResults appends the retained entries, best first, to dst and returns
// the extended slice: the module's hand-off into storage its caller owns.
//
//boss:hotpath once per query, into the caller's storage.
func (q *ShiftRegisterQueue) AppendResults(dst []Entry) []Entry {
	return append(dst, q.slots...)
}
