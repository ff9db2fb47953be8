package shard_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
)

// mustRefuse ingests s and requires ErrInvalidSample with no step
// assigned.
func mustRefuse(t *testing.T, mgr *shard.Manager, s stream.Sample) {
	t.Helper()
	before := mgr.Step()
	if _, _, err := mgr.Ingest([]stream.Sample{s}); !errors.Is(err, shard.ErrInvalidSample) {
		t.Fatalf("ingest %v: err = %v, want ErrInvalidSample", s, err)
	}
	if got := mgr.Step(); got != before {
		t.Fatalf("refused sample moved the step %d → %d", before, got)
	}
}

// mustServeFinite flushes and requires every top-k estimate finite.
func mustServeFinite(t *testing.T, mgr *shard.Manager) {
	t.Helper()
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}
	top, err := mgr.TopKMagnitude(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range top {
		if math.IsNaN(p.Estimate) || math.IsInf(p.Estimate, 0) {
			t.Fatalf("pair (%d,%d) estimate %v", p.A, p.B, p.Estimate)
		}
	}
}

func TestIngestRefusesOversizedIncrementCS(t *testing.T) {
	mgr, err := shard.New(shard.Config{
		Dim: 16, Shards: 2,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 5, Range: 256, Seed: 1}, T: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mustRefuse(t, mgr, stream.Sample{Idx: []int{3, 7}, Val: []float64{1e200, 1e200}})
	mustRefuse(t, mgr, stream.Sample{Idx: []int{1, 3, 7}, Val: []float64{2, 1e76, -1e76}})
	// One huge value has no partner large enough to overflow.
	ok := []stream.Sample{
		{Idx: []int{3, 7}, Val: []float64{1e200, 1e-60}},
		{Idx: []int{4}, Val: []float64{1e300}},
		{Idx: []int{0, 1}, Val: []float64{1.5, -2}},
	}
	if _, _, err := mgr.Ingest(ok); err != nil {
		t.Fatalf("bounded samples refused: %v", err)
	}
	mustServeFinite(t, mgr)
}

func TestIngestRefusesOversizedIncrementASCS(t *testing.T) {
	const d, T0 = 16, 20
	ds := dataset.Simulation(d, 200, 0.05, 3)
	samples := samplesOf(ds)
	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: 2,
		Engine: shard.EngineSpec{
			Kind:     shard.KindASCS,
			Sketch:   countsketch.Config{Tables: 5, Range: 256, Seed: 2},
			T:        1000,
			Schedule: core.Hyperparams{T0: T0, Theta: 0.05, Tau0: 1e-4, T: 1000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// Past exploration the gate, not a plain insert, sees the pairs.
	if _, _, err := mgr.Ingest(samples[:2*T0]); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, mgr, stream.Sample{Idx: []int{3, 7}, Val: []float64{1e200, 1e200}})
	if _, _, err := mgr.Ingest(samples[2*T0:]); err != nil {
		t.Fatal(err)
	}
	mustServeFinite(t, mgr)
}

// TestIngestIncrementBoundCoversDecayScale ingests the largest accepted
// increment into a decayed sketch whose lazy scale sits near the
// renormalization floor, where the stored update is largest.
func TestIngestIncrementBoundCoversDecayScale(t *testing.T) {
	mgr, err := shard.New(shard.Config{
		Dim: 8, Shards: 1,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 5, Range: 64, Seed: 3}, T: 2, Lambda: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	filler := make([]stream.Sample, 390) // 0.5^390 ≈ 4e-118, just above the floor
	for i := range filler {
		filler[i] = stream.Sample{Idx: []int{0, 1}, Val: []float64{1, 1}}
	}
	if _, _, err := mgr.Ingest(filler); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, mgr, stream.Sample{Idx: []int{2, 3}, Val: []float64{1e76, 1e76}})
	big := math.Sqrt(shard.MaxPairIncrement)
	if _, _, err := mgr.Ingest([]stream.Sample{{Idx: []int{2, 3}, Val: []float64{big, -big}}}); err != nil {
		t.Fatalf("increment at the bound refused: %v", err)
	}
	mustServeFinite(t, mgr)
	if est, err := mgr.Estimate(2, 3); err != nil || math.IsInf(est, 0) || math.IsNaN(est) || est >= 0 {
		t.Fatalf("estimate at the bound = %v, %v", est, err)
	}
}

// TestIngestRefusesIncrementOverflowedByFittedFactor: a feature with a
// tiny warm-up variance gets a huge standardization factor, so a value
// whose raw product is finite overflows once scaled.
func TestIngestRefusesIncrementOverflowedByFittedFactor(t *testing.T) {
	const warm = 20
	mgr, err := shard.New(shard.Config{
		Dim: 8, Shards: 2, Warmup: warm, Standardize: true,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 5, Range: 256, Seed: 4}, T: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	prefix := make([]stream.Sample, warm)
	for i := range prefix {
		prefix[i] = stream.Sample{Idx: []int{2, 5}, Val: []float64{float64(1+i%2) * 1e-100, float64(1 + i%3)}}
	}
	if _, _, err := mgr.Ingest(prefix); err != nil {
		t.Fatal(err)
	}
	if mgr.Warming() {
		t.Fatal("still warming after the prefix")
	}
	// Raw products 1e210 and 1e150 are finite; scaled by ~2e100 they
	// are not (or exceed the bound).
	mustRefuse(t, mgr, stream.Sample{Idx: []int{2, 5}, Val: []float64{1e200, 10}})
	mustRefuse(t, mgr, stream.Sample{Idx: []int{2, 5}, Val: []float64{1e150, 1}})
	if _, _, err := mgr.Ingest([]stream.Sample{{Idx: []int{2, 5}, Val: []float64{1e-100, 2}}}); err != nil {
		t.Fatal(err)
	}
	mustServeFinite(t, mgr)
}
