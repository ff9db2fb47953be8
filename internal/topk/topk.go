// Package topk provides bounded top-k selection utilities: a one-shot
// min-heap for selecting the k largest-scored keys from a scan, and an
// updatable bounded tracker used to keep retrieval candidates when the
// pair universe is too large to enumerate (Table 2 scale).
//
// Every selection here ranks by one total order: higher score first,
// and among equal scores the smaller key first (NaN scores rank after
// every number). Results therefore never depend on arrival or
// iteration order, even when scores tie at the cut.
package topk

import (
	"fmt"
	"sort"

	"repro/internal/sketchapi"
)

// Item pairs a key with a score.
type Item struct {
	Key   uint64
	Score float64
}

// ranksBefore reports whether (as, ak) ranks strictly ahead of (bs, bk)
// in the package's total order: score descending, then key ascending,
// with NaN scores after every number.
func ranksBefore(as float64, ak uint64, bs float64, bk uint64) bool {
	if as > bs {
		return true
	}
	if as < bs {
		return false
	}
	if as == bs {
		return ak < bk
	}
	// At least one NaN.
	if an, bn := as != as, bs != bs; an != bn {
		return bn
	}
	return ak < bk
}

// Heap selects the k items ranking first (largest scores, ties to the
// smaller key) from a stream of Push calls. The zero value is unusable;
// construct with NewHeap.
type Heap struct {
	k     int
	items []Item // min-heap: the root ranks last
}

// NewHeap returns a selector for the k largest scores (k ≥ 1). The
// initial capacity reservation is bounded: k is a retention limit, not
// a promise of k pushes, so a huge k must not preallocate huge memory.
func NewHeap(k int) *Heap {
	if k < 1 {
		k = 1
	}
	reserve := k
	if reserve > 4096 {
		reserve = 4096
	}
	return &Heap{k: k, items: make([]Item, 0, reserve)}
}

// Push offers an item; it is retained only if it ranks in the current
// top k.
func (h *Heap) Push(key uint64, score float64) {
	if len(h.items) < h.k {
		h.items = append(h.items, Item{key, score})
		h.up(len(h.items) - 1)
		return
	}
	if m := h.items[0]; !ranksBefore(score, key, m.Score, m.Key) {
		return
	}
	h.items[0] = Item{key, score}
	h.down(0)
}

// Len returns the number of retained items (≤ k).
func (h *Heap) Len() int { return len(h.items) }

// Min returns the last-ranked retained item (the admission bar once
// full).
func (h *Heap) Min() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// SortedDesc returns the retained items in rank order (descending
// score, ties by ascending key), consuming nothing (the heap remains
// valid).
func (h *Heap) SortedDesc() []Item {
	out := append([]Item(nil), h.items...)
	sort.Slice(out, func(i, j int) bool {
		return ranksBefore(out[i].Score, out[i].Key, out[j].Score, out[j].Key)
	})
	return out
}

// after reports whether item i ranks strictly after item j (min-heap
// order: the root is the item that ranks last).
func (h *Heap) after(i, j int) bool {
	return ranksBefore(h.items[j].Score, h.items[j].Key, h.items[i].Score, h.items[i].Key)
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.after(i, parent) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		last := i
		if l < n && h.after(l, last) {
			last = l
		}
		if r < n && h.after(r, last) {
			last = r
		}
		if last == i {
			return
		}
		h.items[i], h.items[last] = h.items[last], h.items[i]
		i = last
	}
}

// ReservedKey is the one key a Tracker or BottomK cannot hold: it marks
// free slots of their tables. Pair keys are below pairs.Count(d) < 2⁶³,
// so no covariance stream produces it; Offer panics on it rather than
// losing it silently.
const ReservedKey = ^uint64(0)

// Tracker is a bounded map from key to latest score that retains
// (approximately) the highest-scored keys seen. Scores may be updated;
// when the tracker exceeds twice its capacity it prunes to the capacity
// highest scores. It backs candidate retrieval for huge pair universes,
// where keys that ever pass the ASCS gate are the only plausible heavy
// hitters.
//
// The map is a flat open-addressing table allocated once: parallel
// keys/scores arrays of a power-of-two size ≥ 4·capacity, multiplicative
// (Fibonacci) hashing and linear probing, with ReservedKey marking free
// slots. At most 2·capacity+1 keys are live, so the load factor stays
// at or below one half. Pruning compacts the live entries in place,
// selects the capacity best in O(n) (quickselect under the package's
// total order) and rehashes them through a reused scratch buffer, so a
// steady Offer loop allocates nothing, prunes included.
//
// For exponential-decay serving the tracker supports O(1) aging: Decay
// multiplies every retained score by a factor lazily (a global scale,
// exactly like the count sketch's lazy decay), so candidates that stop
// being offered sink relative to fresh ones and eventually prune out —
// admitted pairs age out of top-k instead of squatting forever.
type Tracker struct {
	cap    int
	keys   []uint64  // table slots; ReservedKey = free
	scores []float64 // raw scores; logical score = raw · scale
	shift  uint      // 64 − log2(len(keys)): hash → slot
	mask   int       // len(keys) − 1
	n      int       // live keys

	// Prune scratch (the capacity survivors), allocated on the first
	// prune so trackers that never overflow never pay for it.
	keepKeys   []uint64
	keepScores []float64
	rnd        uint64 // quickselect pivot state

	scale float64 // lazy decay accumulator
	inv   float64 // 1/scale, applied on Offer

	pruned uint64 // cumulative keys evicted by prune (churn telemetry)
}

// trackerRenormFloor is the shared lazy-decay renormalization floor:
// fold the lazy scale into the raw scores before it underflows.
const trackerRenormFloor = sketchapi.RenormFloor

// NewTracker returns a tracker retaining roughly capacity keys (≥ 1).
func NewTracker(capacity int) *Tracker {
	if capacity < 1 {
		capacity = 1
	}
	size, bits := 1, uint(0)
	for size < 4*capacity {
		size <<= 1
		bits++
	}
	t := &Tracker{
		cap:    capacity,
		keys:   make([]uint64, size),
		scores: make([]float64, size),
		shift:  64 - bits,
		mask:   size - 1,
		rnd:    0x9e3779b97f4a7c15,
		scale:  1,
		inv:    1,
	}
	t.clear()
	return t
}

// fibSlot is the multiplicative (Fibonacci) hash of key onto a table of
// 2^(64−shift) slots, shared by the Tracker and BottomK tables.
func fibSlot(key uint64, shift uint) int {
	return int((key * 0x9e3779b97f4a7c15) >> shift)
}

// home returns key's first probe slot.
func (t *Tracker) home(key uint64) int { return fibSlot(key, t.shift) }

func (t *Tracker) clear() {
	for i := range t.keys {
		t.keys[i] = ReservedKey
	}
	t.n = 0
}

// Offer records (or refreshes) the score for key. Offering ReservedKey
// panics.
func (t *Tracker) Offer(key uint64, score float64) {
	if key == ReservedKey {
		panic(fmt.Sprintf("topk: key %#x is reserved and cannot be tracked", key))
	}
	raw := score * t.inv
	i := t.home(key)
	for {
		switch t.keys[i] {
		case key:
			t.scores[i] = raw
			return
		case ReservedKey:
			t.keys[i], t.scores[i] = key, raw
			t.n++
			if t.n > 2*t.cap {
				t.prune()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// insert places a key known to be absent (prune's rehash).
func (t *Tracker) insert(key uint64, raw float64) {
	i := t.home(key)
	for t.keys[i] != ReservedKey {
		i = (i + 1) & t.mask
	}
	t.keys[i], t.scores[i] = key, raw
	t.n++
}

// Decay multiplies every retained score by f ∈ (0,1] in O(1) via the
// lazy scale accumulator. Decay(1) is an exact no-op; relative order of
// retained scores never changes, only their weight against future
// offers.
func (t *Tracker) Decay(f float64) {
	if f == 1 {
		return
	}
	t.scale *= f
	if t.scale < trackerRenormFloor {
		for i, k := range t.keys {
			if k != ReservedKey {
				t.scores[i] *= t.scale
			}
		}
		t.scale, t.inv = 1, 1
		return
	}
	t.inv = 1 / t.scale
}

// Len returns the number of tracked keys.
func (t *Tracker) Len() int { return t.n }

// Capacity returns the configured retention target.
func (t *Tracker) Capacity() int { return t.cap }

// Each invokes fn for every tracked (key, score) entry in unspecified
// order, with scores in logical (decayed) units (serialization and
// diagnostics; do not mutate during iteration).
func (t *Tracker) Each(fn func(key uint64, score float64)) {
	for i, k := range t.keys {
		if k != ReservedKey {
			fn(k, t.scores[i]*t.scale)
		}
	}
}

// Keys returns the tracked keys in unspecified order.
func (t *Tracker) Keys() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, k := range t.keys {
		if k != ReservedKey {
			out = append(out, k)
		}
	}
	return out
}

// Top returns the k highest-scored tracked keys, rescored by rescore if
// non-nil (e.g. the final sketch estimates), in rank order. Without a
// rescore the retained scores are reported in logical (decayed) units.
func (t *Tracker) Top(k int, rescore func(uint64) float64) []Item {
	h := NewHeap(k)
	for i, key := range t.keys {
		if key == ReservedKey {
			continue
		}
		var sc float64
		if rescore != nil {
			sc = rescore(key)
		} else {
			sc = t.scores[i] * t.scale
		}
		h.Push(key, sc)
	}
	return h.SortedDesc()
}

// topBatchChunk is the number of candidates TopBatch hands its
// estimator per call: enough to amortize the call and let a batched
// estimator overlap its memory reads, small enough that the chunk's
// keys, estimates and the estimator's slot scratch stay in L1.
const topBatchChunk = 64

// TopBatch is Top with a chunked rescore: estimate fills ests[i] with
// the current estimate of keys[i] for successive chunks of the tracked
// keys (len(ests) == len(keys) ≤ 64), and each candidate ranks by
// rank(estimate). The result equals Top(k, func(key) { return
// rank(est(key)) }) for any estimate that agrees with est key by key.
func (t *Tracker) TopBatch(k int, estimate func(keys []uint64, ests []float64), rank func(float64) float64) []Item {
	h := NewHeap(k)
	keys := make([]uint64, topBatchChunk)
	ests := make([]float64, topBatchChunk)
	for i := 0; i < len(t.keys); {
		n := 0
		for ; i < len(t.keys) && n < topBatchChunk; i++ {
			if key := t.keys[i]; key != ReservedKey {
				keys[n] = key
				n++
			}
		}
		estimate(keys[:n], ests[:n])
		for j, key := range keys[:n] {
			h.Push(key, rank(ests[j]))
		}
	}
	return h.SortedDesc()
}

// prune keeps the capacity best entries (by raw score under the total
// order; raw and logical order agree because scale is uniform): compact
// the live entries to the table's prefix, quickselect the survivors to
// its front, copy them out, clear the table and rehash them.
func (t *Tracker) prune() {
	n := 0
	for i, k := range t.keys {
		if k != ReservedKey {
			t.keys[n], t.scores[n] = k, t.scores[i]
			n++
		}
	}
	keys, scores := t.keys[:n], t.scores[:n]
	t.selectTop(keys, scores, t.cap)
	if t.keepKeys == nil {
		t.keepKeys = make([]uint64, t.cap)
		t.keepScores = make([]float64, t.cap)
	}
	copy(t.keepKeys, keys[:t.cap])
	copy(t.keepScores, scores[:t.cap])
	t.pruned += uint64(n - t.cap)
	t.clear()
	for i, k := range t.keepKeys {
		t.insert(k, t.keepScores[i])
	}
}

// selectTop reorders keys/scores (parallel, distinct keys) so that the
// c entries ranking first occupy the prefix [0, c), in expected O(n):
// Lomuto-partition quickselect with pseudo-random pivots. Distinct keys
// make the order strict, so the selected set does not depend on the
// pivots.
func (t *Tracker) selectTop(keys []uint64, scores []float64, c int) {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		// xorshift64 pivot choice.
		t.rnd ^= t.rnd << 13
		t.rnd ^= t.rnd >> 7
		t.rnd ^= t.rnd << 17
		p := lo + int(t.rnd%uint64(hi-lo+1))
		keys[p], keys[hi] = keys[hi], keys[p]
		scores[p], scores[hi] = scores[hi], scores[p]
		pk, ps := keys[hi], scores[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if ranksBefore(scores[i], keys[i], ps, pk) {
				keys[i], keys[store] = keys[store], keys[i]
				scores[i], scores[store] = scores[store], scores[i]
				store++
			}
		}
		keys[store], keys[hi] = keys[hi], keys[store]
		scores[store], scores[hi] = scores[hi], scores[store]
		// [lo, store) rank before the pivot, which now has rank store.
		switch {
		case store == c || store == c-1:
			return
		case store > c:
			hi = store - 1
		default:
			lo = store + 1
		}
	}
}

// Pruned returns the cumulative number of keys evicted by pruning —
// the top-k churn signal: how many once-admitted candidates have been
// displaced by fresher or heavier ones.
func (t *Tracker) Pruned() uint64 { return t.pruned }
