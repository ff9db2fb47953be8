package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTracker is the reference model of Tracker: a Go map plus a full
// sort at prune time, with the same lazy-decay arithmetic.
type refTracker struct {
	cap        int
	scores     map[uint64]float64
	scale, inv float64
	pruned     uint64
}

func newRefTracker(c int) *refTracker {
	return &refTracker{cap: c, scores: map[uint64]float64{}, scale: 1, inv: 1}
}

func (r *refTracker) Offer(key uint64, score float64) {
	r.scores[key] = score * r.inv
	if len(r.scores) <= 2*r.cap {
		return
	}
	all := r.sorted(func(_ uint64, raw float64) float64 { return raw })
	r.pruned += uint64(len(all) - r.cap)
	r.scores = map[uint64]float64{}
	for _, it := range all[:r.cap] {
		r.scores[it.Key] = it.Score
	}
}

func (r *refTracker) Decay(f float64) {
	if f == 1 {
		return
	}
	r.scale *= f
	if r.scale < trackerRenormFloor {
		for k, v := range r.scores {
			r.scores[k] = v * r.scale
		}
		r.scale, r.inv = 1, 1
		return
	}
	r.inv = 1 / r.scale
}

// sorted returns every entry scored by score(key, raw), fully sorted
// by the package's total order.
func (r *refTracker) sorted(score func(key uint64, raw float64) float64) []Item {
	out := make([]Item, 0, len(r.scores))
	for k, v := range r.scores {
		out = append(out, Item{k, score(k, v)})
	}
	sort.Slice(out, func(i, j int) bool {
		return ranksBefore(out[i].Score, out[i].Key, out[j].Score, out[j].Key)
	})
	return out
}

func (r *refTracker) Top(k int, rescore func(uint64) float64) []Item {
	all := r.sorted(func(key uint64, raw float64) float64 {
		if rescore != nil {
			return rescore(key)
		}
		return raw * r.scale
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestTrackerMatchesReference is the model-based pin of the flat
// table: random Offer/Decay sequences — re-offers of live and pruned
// keys, scores drawn from a small set so ties straddle every prune cut,
// and decay factors small enough to force renormalizations — must keep
// exactly the reference's (key, score) set, prune count and top-k
// (plain, rescored and batch-rescored) at every check point.
func TestTrackerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := []int{1, 2, 5, 16, 40}[rng.Intn(5)]
		universe := 1 + rng.Intn(12*c)
		levels := []float64{0, 0.25, 0.5, 1, 1, 2, 3.5, 8}
		tr, ref := NewTracker(c), newRefTracker(c)
		rescore := func(key uint64) float64 { return float64(key%7) - 3 }
		for op := 0; op < 3000; op++ {
			switch x := rng.Intn(100); {
			case x < 85:
				key := uint64(rng.Intn(universe)) * 0x1000193 // spread, still < 2⁶³
				score := levels[rng.Intn(len(levels))]
				if rng.Intn(4) == 0 {
					score = rng.Float64()
				}
				tr.Offer(key, score)
				ref.Offer(key, score)
			case x < 95:
				f := []float64{1, 0.5, 0.9, 1e-30, 1e-70}[rng.Intn(5)]
				tr.Decay(f)
				ref.Decay(f)
			default:
				checkAgainstRef(t, fmt.Sprintf("seed %d op %d", seed, op), tr, ref, rescore)
			}
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d end", seed), tr, ref, rescore)
	}
}

func checkAgainstRef(t *testing.T, where string, tr *Tracker, ref *refTracker, rescore func(uint64) float64) {
	t.Helper()
	if tr.Len() != len(ref.scores) || tr.Pruned() != ref.pruned {
		t.Fatalf("%s: Len/Pruned = %d/%d, reference %d/%d", where, tr.Len(), tr.Pruned(), len(ref.scores), ref.pruned)
	}
	tr.Each(func(key uint64, score float64) {
		raw, ok := ref.scores[key]
		if !ok || math.Float64bits(raw*ref.scale) != math.Float64bits(score) {
			t.Fatalf("%s: key %d score %v, reference %v (present %v)", where, key, score, raw*ref.scale, ok)
		}
	})
	batch := func(keys []uint64, ests []float64) {
		for i, k := range keys {
			ests[i] = rescore(k)
		}
	}
	for _, k := range []int{1, 32, tr.Capacity()} {
		if got, want := tr.Top(k, nil), ref.Top(k, nil); !sameItems(got, want) {
			t.Fatalf("%s: Top(%d) = %v, reference %v", where, k, got, want)
		}
		want := ref.Top(k, rescore)
		if got := tr.Top(k, rescore); !sameItems(got, want) {
			t.Fatalf("%s: rescored Top(%d) = %v, reference %v", where, k, got, want)
		}
		if got := tr.TopBatch(k, batch, func(v float64) float64 { return v }); !sameItems(got, want) {
			t.Fatalf("%s: TopBatch(%d) = %v, reference %v", where, k, got, want)
		}
	}
}

// TestTrackerTiesDeterministic is the tie-order regression: the same
// tied entries offered in different orders must leave the same tracked
// set and the same Top(k). 2c+1 entries make the last offer prune, so
// the survivors are the c best of all of them and ties straddle the
// cut.
func TestTrackerTiesDeterministic(t *testing.T) {
	const c = 8
	entries := make([]Item, 2*c+1)
	for i := range entries {
		entries[i] = Item{Key: uint64(1000 + 17*i), Score: float64(i % 3)} // heavy ties
	}
	var wantKeys map[uint64]float64
	var wantTop []Item
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(entries))
		tr := NewTracker(c)
		for _, p := range perm {
			tr.Offer(entries[p].Key, entries[p].Score)
		}
		got := map[uint64]float64{}
		tr.Each(func(k uint64, s float64) { got[k] = s })
		top := tr.Top(5, nil)
		if trial == 0 {
			wantKeys, wantTop = got, top
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(wantKeys) {
			t.Fatalf("trial %d: tracked set %v, first order kept %v", trial, got, wantKeys)
		}
		if !sameItems(top, wantTop) {
			t.Fatalf("trial %d: Top(5) = %v, first order gave %v", trial, top, wantTop)
		}
	}
	// The heap alone: tied scores keep the smaller keys whatever the
	// arrival order.
	for _, order := range [][]uint64{{5, 3, 9, 1}, {1, 9, 3, 5}, {9, 5, 3, 1}} {
		h := NewHeap(2)
		for _, k := range order {
			h.Push(k, 1)
		}
		if got := h.SortedDesc(); got[0].Key != 1 || got[1].Key != 3 {
			t.Fatalf("order %v: heap kept %v, want keys 1, 3", order, got)
		}
	}
}

// TestTrackerOfferAllocs pins the zero-allocation steady state: an
// Offer loop over fresh keys that crosses several prunes allocates
// nothing once the prune scratch exists.
func TestTrackerOfferAllocs(t *testing.T) {
	const c = 256
	tr := NewTracker(c)
	key := uint64(0)
	offerRound := func() {
		for i := 0; i < 4*c; i++ { // ≥ 2 prunes per round
			key += 7919
			tr.Offer(key, float64(key%1000))
		}
	}
	offerRound() // first prune allocates the scratch
	before := tr.Pruned()
	if allocs := testing.AllocsPerRun(10, offerRound); allocs != 0 {
		t.Fatalf("steady Offer loop allocates %v per round, want 0", allocs)
	}
	if tr.Pruned() == before {
		t.Fatal("test did not cross a prune")
	}
}

// TestTrackerReservedKey pins the sentinel guard: the key that marks
// free table slots is refused loudly, never silently dropped, and the
// largest key below it is tracked normally.
func TestTrackerReservedKey(t *testing.T) {
	tr := NewTracker(4)
	tr.Offer(ReservedKey-1, 2)
	if top := tr.Top(1, nil); len(top) != 1 || top[0].Key != ReservedKey-1 {
		t.Fatalf("key 2⁶⁴−2 not served: %v", top)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Offer(ReservedKey) did not panic")
		}
		if tr.Len() != 1 {
			t.Fatalf("refused offer changed the tracker: Len = %d", tr.Len())
		}
	}()
	tr.Offer(ReservedKey, 1)
}

// sparseKeys mimics a sparse pair stream: mostly fresh keys spread over
// a huge universe, with a hot set re-offered often.
func sparseKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		if rng.Intn(8) == 0 {
			keys[i] = uint64(rng.Intn(512)) * 1_000_003
		} else {
			keys[i] = rng.Uint64() >> 30
		}
	}
	return keys
}

func BenchmarkTrackerOfferSparse(b *testing.B) {
	keys := sparseKeys(1 << 16)
	tr := NewTracker(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		tr.Offer(k, float64(k&1023))
	}
}

func BenchmarkTrackerOfferDense(b *testing.B) {
	// 12,720 distinct keys (d = 160): the set fits, nothing prunes.
	const distinct = 160 * 159 / 2
	tr := NewTracker(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % distinct)
		tr.Offer(k, float64(i&1023))
	}
}

var benchTop []Item

func BenchmarkTrackerTop(b *testing.B) {
	tr := NewTracker(1 << 14)
	for _, k := range sparseKeys(1 << 16) {
		tr.Offer(k, float64(k&1023))
	}
	rescore := func(k uint64) float64 { return float64(k % 4093) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTop = tr.Top(32, rescore)
	}
}
