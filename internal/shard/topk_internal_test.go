package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/sketchapi"
	"repro/internal/stream"
	"repro/internal/topk"
)

// sparseTopSamples is a sparse stream over dim features with two
// planted correlated pairs, so the ASCS gate admits a heavy head and a
// long tail of candidates crosses the tracker's prunes.
func sparseTopSamples(dim, n int, seed int64) []stream.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Sample, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.15 {
				row[j] = rng.NormFloat64()
			}
		}
		row[3] = rng.NormFloat64()
		row[11] = 0.9*row[3] + 0.1*rng.NormFloat64()
		row[20] = rng.NormFloat64()
		row[41] = -0.8*row[20] + 0.2*rng.NormFloat64()
		out[i] = stream.FromDense(row)
	}
	return out
}

func topSpec(kind Kind, T int, lambda float64) EngineSpec {
	sp := EngineSpec{
		Kind:   kind,
		Sketch: countsketch.Config{Tables: 5, Range: 1 << 10, Seed: 41},
		T:      T,
		Lambda: lambda,
	}
	if kind == KindASCS {
		sp.Schedule = core.Hyperparams{T0: 30, Theta: 0.05, Tau0: 1e-5, T: T}
	}
	return sp
}

// perKeyTop is the reference rescore: one Estimate per candidate.
func perKeyTop(w *worker, k int, rank func(float64) float64) []kv {
	items := w.track.Top(k, func(key uint64) float64 { return rank(w.eng.Estimate(key)) })
	out := make([]kv, len(items))
	for i, it := range items {
		out[i] = kv{key: it.Key, est: w.eng.Estimate(it.Key)}
	}
	return out
}

func sameKVs(a, b []kv) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].key != b[i].key || math.Float64bits(a[i].est) != math.Float64bits(b[i].est) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestLocalTopBatchedMatchesPerKey pins the wave rescore of the
// per-shard top-k scan: on the two table engines (CS and ASCS),
// fixed-horizon and decayed (lazy scale ≠ 1), at full resolution and
// folded, localTop must return bit-for-bit what the per-key Estimate
// rescore returns, for signed and magnitude ranking, at k below, at
// and above the tracked count.
func TestLocalTopBatchedMatchesPerKey(t *testing.T) {
	const dim, T = 60, 300
	samples := sparseTopSamples(dim, 240, 7)
	for _, kind := range []Kind{KindCS, KindASCS} {
		for _, lambda := range []float64{0, 0.98} {
			name := fmt.Sprintf("%s/lambda=%v", kind, lambda)
			m, err := New(Config{Dim: dim, Shards: 2, TrackCandidates: 96, Engine: topSpec(kind, T, lambda)})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Ingest(samples); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex // closures run on every worker goroutine
			var errs []error
			var pruned uint64
			err = m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
				mu.Lock()
				defer mu.Unlock()
				pruned += w.track.Pruned()
				if lambda != 0 && w.eng.(sketchapi.Decayer).EffectiveSamples() == float64(len(samples)) {
					errs = append(errs, fmt.Errorf("%s: engine did not decay", name))
				}
				check := func(stage string) {
					for _, k := range []int{1, 32, w.track.Len(), w.track.Len() + 5} {
						for rname, rank := range map[string]func(float64) float64{"signed": func(v float64) float64 { return v }, "magnitude": math.Abs} {
							if err := sameKVs(w.localTop(k, rank), perKeyTop(w, k, rank)); err != nil {
								errs = append(errs, fmt.Errorf("%s %s shard %d k=%d %s: %v", name, stage, w.id, k, rname, err))
							}
						}
					}
				}
				check("full")
				if err := w.eng.(sketchapi.Folder).Fold(2); err != nil {
					errs = append(errs, err)
					return
				}
				w.folded = true // the next batch unfolds, as after an idle fold
				check("folded")
			})
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range errs {
				t.Error(e)
			}
			if pruned == 0 {
				t.Fatalf("%s: no tracker pruned; the test must cover a pruned candidate set", name)
			}
		}
	}
}

// trackerSection serializes entries in the given order in the snapshot
// tracker format: a uint32 count, then (key, float64 bits) pairs.
func trackerSection(entries []topk.Item) []byte {
	var buf bytes.Buffer
	var b [16]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(entries)))
	buf.Write(b[:4])
	for _, e := range entries {
		binary.LittleEndian.PutUint64(b[0:], e.Key)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Score))
		buf.Write(b[:])
	}
	return buf.Bytes()
}

func trackedSet(tr *topk.Tracker) map[uint64]uint64 {
	out := map[uint64]uint64{}
	tr.Each(func(k uint64, s float64) { out[k] = math.Float64bits(s) })
	return out
}

// TestTrackerSnapshotOrderCompat pins the tracker section's byte format
// and its independence from entry order: snapshots written by the
// earlier map-backed tracker list entries in randomized map order, and
// any order must restore to the same tracked set and the same top-k
// (tied scores included). The section writeTracker emits must be the
// same count + entry format, and the reserved table key must be refused
// as corruption rather than panic the restore.
func TestTrackerSnapshotOrderCompat(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(3))
	src := topk.NewTracker(capacity)
	for i := 0; i < 5*capacity; i++ {
		src.Offer(uint64(rng.Intn(400))*977, float64(rng.Intn(6))) // many ties
	}
	var entries []topk.Item
	src.Each(func(k uint64, s float64) { entries = append(entries, topk.Item{Key: k, Score: s}) })

	var written bytes.Buffer
	if err := writeTracker(&written, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written.Bytes(), trackerSection(entries)) {
		t.Fatal("writeTracker output is not the count + (key, score) section format")
	}

	rescore := func(k uint64) float64 { return float64(k % 5) }
	wantSet := trackedSet(src)
	wantTop := src.Top(capacity, nil)
	wantRescored := src.Top(10, rescore)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		got, err := readTracker(bytes.NewReader(trackerSection(entries)), capacity)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(trackedSet(got)) != fmt.Sprint(wantSet) {
			t.Fatalf("trial %d: restored tracked set differs", trial)
		}
		if a, b := got.Top(capacity, nil), wantTop; fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: restored Top = %v, want %v", trial, a, b)
		}
		if a, b := got.Top(10, rescore), wantRescored; fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: restored rescored Top = %v, want %v", trial, a, b)
		}
	}

	bad := append([]topk.Item{{Key: topk.ReservedKey, Score: 1}}, entries...)
	if _, err := readTracker(bytes.NewReader(trackerSection(bad)), capacity); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("reserved key in a tracker section: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// shardTrackers collects every shard's tracked (key, score bits) set.
func shardTrackers(t *testing.T, m *Manager) []map[uint64]uint64 {
	t.Helper()
	out := make([]map[uint64]uint64, m.cfg.Shards)
	err := m.execAll(context.Background(), ConsistencyFresh, nil, func(w *worker) {
		out[w.id] = trackedSet(w.track)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTrackerSnapshotIdempotent checks that restore → re-snapshot →
// restore reproduces the tracked candidate sets bit-for-bit and serves
// the same top-k, even though the flat table's iteration order after a
// restore need not match the original's.
func TestTrackerSnapshotIdempotent(t *testing.T) {
	const dim, T = 60, 400
	m, err := New(Config{Dim: dim, Shards: 2, TrackCandidates: 80, Engine: topSpec(KindASCS, T, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Ingest(sparseTopSamples(dim, 200, 9)); err != nil {
		t.Fatal(err)
	}
	want := shardTrackers(t, m)
	wantTop, err := m.TopKMagnitude(25)
	if err != nil {
		t.Fatal(err)
	}
	cur := m
	for round := 0; round < 2; round++ {
		dir := t.TempDir()
		if err := cur.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := shardTrackers(t, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: restored tracked sets differ", round)
		}
		gotTop, err := r.TopKMagnitude(25)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotTop) != fmt.Sprint(wantTop) {
			t.Fatalf("round %d: restored top-k %v, want %v", round, gotTop, wantTop)
		}
		cur = r
	}
}

// BenchmarkLocalTop measures one shard's top-k scan over a pruned
// candidate set of the default size (16,384–32,768 keys) on an ASCS
// engine: the per-shard cost of every fresh /v1/topk.
func BenchmarkLocalTop(b *testing.B) {
	sp := topSpec(KindASCS, 1<<20, 0)
	sp.Sketch.Range = 1 << 17
	eng, err := sp.build()
	if err != nil {
		b.Fatal(err)
	}
	w := &worker{eng: eng, track: topk.NewTracker(1 << 14)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40_000; i++ {
		key := rng.Uint64() >> 28
		eng.BeginStep(1 + i/1000)
		eng.Offer(key, rng.NormFloat64())
		w.track.Offer(key, math.Abs(eng.Estimate(key)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.localTop(32, math.Abs)
	}
}
