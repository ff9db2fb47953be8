package topk

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hashing"
)

func TestBottomKBelowCapacityKeepsAll(t *testing.T) {
	b := NewBottomK(100, 1)
	for k := uint64(0); k < 50; k++ {
		b.Offer(k)
		b.Offer(k) // duplicates are idempotent
	}
	if b.Len() != 50 {
		t.Fatalf("Len = %d, want 50", b.Len())
	}
	if b.Saturated() {
		t.Error("should not be saturated")
	}
	if got := b.DistinctEstimate(); got != 50 {
		t.Errorf("DistinctEstimate = %v, want exact 50", got)
	}
	seen := map[uint64]bool{}
	for _, k := range b.Keys() {
		seen[k] = true
	}
	if len(seen) != 50 {
		t.Errorf("keys not distinct: %d", len(seen))
	}
}

func TestBottomKDeterministicSample(t *testing.T) {
	mk := func() []uint64 {
		b := NewBottomK(32, 7)
		for k := uint64(0); k < 10000; k++ {
			b.Offer(k)
		}
		return b.Keys()
	}
	a, c := mk(), mk()
	am := map[uint64]bool{}
	for _, k := range a {
		am[k] = true
	}
	for _, k := range c {
		if !am[k] {
			t.Fatal("sample not deterministic")
		}
	}
	if len(a) != 32 {
		t.Fatalf("sample size %d", len(a))
	}
}

func TestBottomKOrderInvariant(t *testing.T) {
	// The retained set depends only on the key set, not offer order.
	fwd := NewBottomK(16, 3)
	rev := NewBottomK(16, 3)
	const n = 5000
	for k := uint64(0); k < n; k++ {
		fwd.Offer(k)
		rev.Offer(n - 1 - k)
	}
	fm := map[uint64]bool{}
	for _, k := range fwd.Keys() {
		fm[k] = true
	}
	for _, k := range rev.Keys() {
		if !fm[k] {
			t.Fatal("sample depends on offer order")
		}
	}
}

func TestBottomKDistinctEstimateAccuracy(t *testing.T) {
	// KMV with k=512 has relative error ~ 1/sqrt(k) ≈ 4.4%; allow 20%.
	const distinct = 200000
	b := NewBottomK(512, 9)
	for k := uint64(0); k < distinct; k++ {
		b.Offer(k)
	}
	est := b.DistinctEstimate()
	if math.Abs(est-distinct)/distinct > 0.2 {
		t.Errorf("DistinctEstimate = %.0f, want ≈ %d", est, distinct)
	}
}

func TestBottomKUniformity(t *testing.T) {
	// Keys 0..9999: a bottom-1000 sample should cover low and high
	// halves roughly equally (the hash decorrelates key value from
	// priority).
	b := NewBottomK(1000, 11)
	for k := uint64(0); k < 10000; k++ {
		b.Offer(k)
	}
	low := 0
	for _, k := range b.Keys() {
		if k < 5000 {
			low++
		}
	}
	if low < 400 || low > 600 {
		t.Errorf("low-half count = %d, want ≈ 500", low)
	}
}

func TestBottomKCapacityClamp(t *testing.T) {
	b := NewBottomK(0, 1)
	b.Offer(1)
	b.Offer(2)
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

// bottomKModel is the map-backed reference sampler: every distinct key
// with its priority, the sample being the k smallest priorities.
type bottomKModel struct {
	k    int
	seed uint64
	pr   map[uint64]uint64
}

func (m *bottomKModel) offer(key uint64) { m.pr[key] = hashing.Mix64(key ^ m.seed) }

// sample returns the retained keys (sorted) and the largest retained
// priority.
func (m *bottomKModel) sample() ([]uint64, uint64) {
	type entry struct{ pr, key uint64 }
	all := make([]entry, 0, len(m.pr))
	for k, pr := range m.pr {
		all = append(all, entry{pr, k})
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.pr, b.pr) })
	all = all[:min(m.k, len(all))]
	keys := make([]uint64, len(all))
	var maxPr uint64
	for i, e := range all {
		keys[i] = e.key
		maxPr = max(maxPr, e.pr)
	}
	slices.Sort(keys)
	return keys, maxPr
}

func (m *bottomKModel) distinctEstimate() float64 {
	keys, maxPr := m.sample()
	if len(keys) < m.k || maxPr == 0 {
		return float64(len(keys))
	}
	return float64(m.k-1) * (18446744073709551616.0 / float64(maxPr))
}

func TestBottomKMatchesMapModel(t *testing.T) {
	for _, k := range []int{1, 16, 1024} {
		rng := rand.New(rand.NewSource(int64(k)))
		b := NewBottomK(k, 0x5eed)
		m := &bottomKModel{k: k, seed: 0x5eed, pr: map[uint64]uint64{}}
		// Keys from a universe ~8k wide so offers repeat, plus runs of
		// consecutive and high-bit keys that crowd probe runs.
		universe := uint64(8 * k)
		for step := 0; step < 40*k+200; step++ {
			var key uint64
			switch rng.Intn(4) {
			case 0:
				key = uint64(step) << 40
			case 1:
				key = uint64(step)
			default:
				key = rng.Uint64() % universe
			}
			b.Offer(key)
			m.offer(key)
			if step%(k+7) == 0 || step == 40*k+199 {
				want, _ := m.sample()
				got := b.Keys()
				slices.Sort(got)
				if !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Fatalf("k=%d step %d: sample of %d keys, model %d; first difference at sorted index %d", k, step, len(got), len(want), i)
				}
				if g, w := b.DistinctEstimate(), m.distinctEstimate(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("k=%d step %d: DistinctEstimate %v, model %v", k, step, g, w)
				}
			}
		}
		if !b.Saturated() {
			t.Fatalf("k=%d: run never saturated the sampler", k)
		}
	}
}

func TestBottomKConstructionIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBottomK(5_000_000, 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewBottomK(5M) allocated %d bytes, want < 64 KiB", got)
	}
}

func TestBottomKReservedKeyRefused(t *testing.T) {
	b := NewBottomK(4, 1)
	b.Offer(7)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Offer(ReservedKey) did not panic")
			}
		}()
		b.Offer(ReservedKey)
	}()
	if keys := b.Keys(); len(keys) != 1 || keys[0] != 7 {
		t.Fatalf("sample after refused offer = %v, want [7]", keys)
	}
}

func TestBottomKSteadyOfferAllocs(t *testing.T) {
	const k = 256
	b := NewBottomK(k, 3)
	for key := uint64(0); key < 4*k; key++ {
		b.Offer(key)
	}
	if !b.Saturated() {
		t.Fatal("not saturated")
	}
	// At saturation the set never grows: new keys evict (or are
	// refused) and repeats hit, all without allocating.
	next := uint64(4 * k)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			b.Offer(next)
			b.Offer(next % (4 * k))
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady Offer allocated %v times per run", allocs)
	}
}

// BenchmarkBottomKOffer offers a census-like key stream — 2^16
// distinct pair keys, each offered repeatedly — to a sampler with the
// warm-up census's default cap.
func BenchmarkBottomKOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64() >> 28 // pair keys of a d ≈ 2^18 stream
	}
	s := NewBottomK(5_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(keys[i&(len(keys)-1)])
	}
}
