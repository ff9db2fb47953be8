package topk

import (
	"fmt"

	"repro/internal/hashing"
)

// BottomK maintains a uniform sample of the *distinct* keys offered to
// it, using the classic bottom-k (KMV) construction: a key is retained
// iff its hashed priority ranks among the k smallest seen. Duplicate
// offers of a key are idempotent, the sample is deterministic given the
// seed, and the k-th smallest priority yields an unbiased estimate of
// the number of distinct keys. The warm-up census uses it so percentile
// ranks stay unbiased when the distinct pair universe exceeds memory.
//
// Membership is a flat open-addressing set of the retained keys (the
// Tracker's layout: Fibonacci hashing, linear probing, ReservedKey
// marking free slots) that starts small and doubles at load one half,
// so memory follows the retained keys rather than k; an eviction
// removes its key by backward-shift deletion, leaving no tombstones.
type BottomK struct {
	k    int
	seed uint64
	// items holds the sample; once it reaches k keys it is a max-heap
	// on priority so the largest retained priority is evictable in
	// O(log k).
	items []bottomKItem
	set   []uint64 // retained keys; ReservedKey = free
	shift uint     // 64 − log2(len(set)): hash → slot
	mask  int      // len(set) − 1
}

type bottomKItem struct {
	key      uint64
	priority uint64
}

// bottomKMinBits sizes the initial set (2^bottomKMinBits slots).
const bottomKMinBits = 4

// NewBottomK returns a sampler retaining at most k distinct keys (k ≥ 1).
// Construction allocates a constant amount whatever k is; the set grows
// with the keys actually retained.
func NewBottomK(k int, seed uint64) *BottomK {
	if k < 1 {
		k = 1
	}
	b := &BottomK{k: k, seed: seed}
	b.resize(bottomKMinBits)
	return b
}

// resize replaces the set by an empty one of 2^bits slots and reinserts
// the retained keys. The sample's backing array grows in the same step
// (to the set's load limit, capped at k), so Offer allocates only here.
func (b *BottomK) resize(bits uint) {
	if limit := min(1<<(bits-1), b.k); cap(b.items) < limit {
		b.items = append(make([]bottomKItem, 0, limit), b.items...)
	}
	b.set = make([]uint64, 1<<bits)
	for i := range b.set {
		b.set[i] = ReservedKey
	}
	b.shift, b.mask = 64-bits, len(b.set)-1
	for _, it := range b.items {
		b.set[b.freeSlot(it.key)] = it.key
	}
}

// freeSlot returns the free slot ending key's probe run (key absent).
func (b *BottomK) freeSlot(key uint64) int {
	i := fibSlot(key, b.shift)
	for b.set[i] != ReservedKey {
		i = (i + 1) & b.mask
	}
	return i
}

// Offer presents a key (idempotently). Offering ReservedKey panics.
func (b *BottomK) Offer(key uint64) {
	if key == ReservedKey {
		panic(fmt.Sprintf("topk: key %#x is reserved and cannot be sampled", key))
	}
	i := fibSlot(key, b.shift)
	for {
		k := b.set[i]
		if k == key {
			return
		}
		if k == ReservedKey {
			break
		}
		i = (i + 1) & b.mask
	}
	pr := hashing.Mix64(key ^ b.seed)
	if len(b.items) < b.k {
		if 2*(len(b.items)+1) > len(b.set) {
			b.resize(64 - b.shift + 1)
			i = b.freeSlot(key)
		}
		b.set[i] = key
		b.items = append(b.items, bottomKItem{key, pr})
		if len(b.items) == b.k {
			// Eviction starts now: order the sample as a max-heap once.
			for j := b.k/2 - 1; j >= 0; j-- {
				b.down(j)
			}
		}
		return
	}
	if pr >= b.items[0].priority {
		return
	}
	b.remove(b.items[0].key)
	// The removal may have shifted entries back across key's probe
	// run, so its free slot is looked up afresh.
	b.set[b.freeSlot(key)] = key
	b.items[0] = bottomKItem{key, pr}
	b.down(0)
}

// remove deletes a retained key from the set by backward-shift
// deletion: each later entry of the probe run moves into the gap when
// the gap is not before its home slot, so lookups never need
// tombstones.
func (b *BottomK) remove(key uint64) {
	i := fibSlot(key, b.shift)
	for b.set[i] != key {
		i = (i + 1) & b.mask
	}
	for j := i; ; {
		j = (j + 1) & b.mask
		k := b.set[j]
		if k == ReservedKey {
			b.set[i] = ReservedKey
			return
		}
		// k sits (j−home) slots past its home; it may fill the gap at
		// i, (j−i) slots back, only if that does not pass its home.
		if (j-fibSlot(k, b.shift))&b.mask >= (j-i)&b.mask {
			b.set[i] = k
			i = j
		}
	}
}

// Len returns the number of retained keys.
func (b *BottomK) Len() int { return len(b.items) }

// Keys returns the retained keys (unordered).
func (b *BottomK) Keys() []uint64 {
	out := make([]uint64, len(b.items))
	for i, it := range b.items {
		out[i] = it.key
	}
	return out
}

// Saturated reports whether the sampler has evicted (i.e. the sample is
// a strict subset of the distinct keys seen).
func (b *BottomK) Saturated() bool { return len(b.items) == b.k }

// DistinctEstimate estimates the number of distinct keys offered. Below
// saturation it is exact; at saturation it uses the KMV estimator
// (k−1)·2^64/maxPriority.
func (b *BottomK) DistinctEstimate() float64 {
	if !b.Saturated() {
		return float64(len(b.items))
	}
	maxPr := b.items[0].priority
	if maxPr == 0 {
		return float64(len(b.items))
	}
	return float64(b.k-1) * (18446744073709551616.0 / float64(maxPr))
}

func (b *BottomK) down(i int) {
	n := len(b.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && b.items[l].priority > b.items[big].priority {
			big = l
		}
		if r < n && b.items[r].priority > b.items[big].priority {
			big = r
		}
		if big == i {
			return
		}
		b.items[i], b.items[big] = b.items[big], b.items[i]
		i = big
	}
}
