package covstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// TestRescoreTopMatchesPerKey pins the shared query-time rescore on
// all four engines: the wave rescore of the table engines (CS, ASCS)
// and the per-key path of the filter baselines must both return
// exactly what one Estimate per tracked candidate ranks, and the
// estimator's Top must report those estimates.
func TestRescoreTopMatchesPerKey(t *testing.T) {
	const dim, T = 40, 150
	rng := rand.New(rand.NewSource(77))
	samples := make([]stream.Sample, T)
	for i := range samples {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.3 {
				row[j] = rng.NormFloat64()
			}
		}
		row[5] = 0.9*row[17] + 0.1*rng.NormFloat64()
		samples[i] = stream.FromDense(row)
	}
	skCfg := countsketch.Config{Tables: 5, Range: 256, Seed: 8}
	engines := map[string]func() (sketchapi.Ingestor, error){
		"CS": func() (sketchapi.Ingestor, error) { return countsketch.NewMeanSketch(skCfg, T) },
		"ASCS": func() (sketchapi.Ingestor, error) {
			return core.NewEngine(skCfg, core.Hyperparams{T0: 20, Theta: 0.05, Tau0: 1e-4, T: T}, true)
		},
		"ASketch": func() (sketchapi.Ingestor, error) { return baselines.NewASketch(skCfg, T, 16) },
		"ColdFilter": func() (sketchapi.Ingestor, error) {
			return baselines.NewColdFilter(countsketch.Config{Tables: 3, Range: 128, Seed: 9}, skCfg, T, 0.05)
		},
	}
	for name, build := range engines {
		eng, err := build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Dim: dim, T: T, Mode: SecondMoment, TrackCandidates: 48, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if err := e.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		if e.track.Pruned() == 0 {
			t.Fatalf("%s: tracker never pruned", name)
		}
		for _, k := range []int{1, 10, e.track.Len() + 1} {
			got := RescoreTop(e.track, eng, k, math.Abs)
			want := e.track.Top(k, func(key uint64) float64 { return math.Abs(eng.Estimate(key)) })
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d items, want %d", name, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s k=%d item %d: %+v, want %+v", name, k, i, got[i], want[i])
				}
			}
			top, err := e.TopMagnitude(k)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range top {
				if p.Key != want[i].Key || math.Float64bits(p.Estimate) != math.Float64bits(eng.Estimate(p.Key)) {
					t.Fatalf("%s k=%d: TopMagnitude[%d] = %+v", name, k, i, p)
				}
			}
		}
	}
}
