package covstream_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/shard"
	"repro/internal/sketchapi"
	"repro/internal/stream"
	"repro/internal/topk"
)

// pairProbe is the census probe Warmup used before it rode the row
// path: a bare Ingestor, so the Estimator offers it every pair through
// per-pair Offer calls. It is the differential oracle of the row-wave
// census.
type pairProbe struct {
	inner   sketchapi.Ingestor
	sumX2   float64
	n       int64
	sampler *topk.BottomK
}

func (s *pairProbe) BeginStep(t int)             { s.inner.BeginStep(t) }
func (s *pairProbe) Estimate(key uint64) float64 { return s.inner.Estimate(key) }
func (s *pairProbe) Bytes() int                  { return s.inner.Bytes() }
func (s *pairProbe) Name() string                { return s.inner.Name() }
func (s *pairProbe) Offer(key uint64, x float64) {
	s.sumX2 += x * x
	s.n++
	s.sampler.Offer(key)
	s.inner.Offer(key, x)
}

// oracleWarmup is Warmup as it was with the per-pair probe: per-key
// census estimates and a reverse sort.Sort.
func oracleWarmup(t *testing.T, src stream.Source, warmupN int, cfg countsketch.Config, mode covstream.Mode, maxSeen int, seed int64) covstream.WarmupResult {
	t.Helper()
	if maxSeen < 1 {
		maxSeen = 5_000_000
	}
	dim := src.Dim()
	ms, err := countsketch.NewMeanSketch(cfg, warmupN)
	if err != nil {
		t.Fatal(err)
	}
	probe := &pairProbe{inner: ms, sampler: topk.NewBottomK(maxSeen, uint64(seed)^0xB077)}
	est, err := covstream.New(covstream.Config{Dim: dim, T: warmupN, Engine: probe, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	n, err := est.Run(stream.NewLimit(src, warmupN))
	if err != nil || n == 0 {
		t.Fatalf("oracle warm-up ran %d samples: %v", n, err)
	}
	var seen []float64
	for _, key := range probe.sampler.Keys() {
		seen = append(seen, ms.Estimate(key))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(seen)))
	p := pairs.Count(dim)
	distinct := min(probe.sampler.DistinctEstimate(), float64(p))
	sigma := 0.0
	if probe.n > 0 {
		sigma = math.Sqrt(probe.sumX2 / (float64(p) * float64(n)))
	}
	if sigma == 0 {
		sigma = 1e-12
	}
	return covstream.WarmupResult{Seen: seen, P: p, DistinctSeen: distinct, Sigma: sigma, SamplesUsed: n}
}

// oracleAutoSpec is shard.AutoSpec's derivation over oracleWarmup.
func oracleAutoSpec(t *testing.T, samples []stream.Sample, dim, shards, horizon int, sk countsketch.Config, alpha float64) shard.EngineSpec {
	t.Helper()
	warmCfg := sk
	warmCfg.Range = max(warmCfg.Range, 1<<16)
	warmCfg.Seed ^= 0x9c3
	warm := oracleWarmup(t, stream.NewSliceSource(samples, dim), len(samples), warmCfg, covstream.SecondMoment, 0, int64(sk.Seed))
	params := warm.ASCSParams(alpha, horizon, sk.Tables, sk.Range)
	params.P = max((pairs.Count(dim)+int64(shards)-1)/int64(shards), 2)
	hp, err := params.WithSuggestedDeltas().Solve()
	if err != nil {
		t.Fatal(err)
	}
	return shard.EngineSpec{Kind: shard.KindASCS, Sketch: sk, T: horizon, Schedule: hp}
}

// scaledPrefix standardizes samples as the serving layer does before
// AutoSpec (scale only).
func scaledPrefix(t *testing.T, samples []stream.Sample, dim int) []stream.Sample {
	t.Helper()
	st, err := stream.NewStandardizer(stream.NewSliceSource(samples, dim), len(samples), false)
	if err != nil {
		t.Fatal(err)
	}
	return stream.Drain(st)
}

// urlPrefix is a sparse URL-like prefix, scaled.
func urlPrefix(t *testing.T, dim, n int) []stream.Sample {
	t.Helper()
	c := dataset.DefaultURLConfig(dim, 5)
	src, err := c.NewSource(n)
	if err != nil {
		t.Fatal(err)
	}
	return scaledPrefix(t, stream.Drain(src), dim)
}

// simulationPrefix is a dense planted-module prefix, scaled.
func simulationPrefix(t *testing.T, dim, n int) []stream.Sample {
	t.Helper()
	ds := dataset.Simulation(dim, n, 0.01, 7)
	var samples []stream.Sample
	for _, row := range ds.Rows {
		samples = append(samples, stream.FromDense(row))
	}
	return scaledPrefix(t, samples, dim)
}

// sameWarmup fails unless got and want are bit-identical. Seen is
// sorted descending, so equal values are adjacent; the one pair of
// distinct bit patterns that compare equal is ±0, whose order inside
// the run of zeros neither sort specifies, so Seen must agree value by
// value and hold the same number of negative zeros.
func sameWarmup(t *testing.T, got, want covstream.WarmupResult) {
	t.Helper()
	if len(got.Seen) != len(want.Seen) {
		t.Fatalf("census size %d, oracle %d", len(got.Seen), len(want.Seen))
	}
	negZeros := 0
	for i := range got.Seen {
		g, w := got.Seen[i], want.Seen[i]
		if g != w || (g != 0 && math.Float64bits(g) != math.Float64bits(w)) {
			t.Fatalf("Seen[%d] = %v, oracle %v", i, g, w)
		}
		if math.Signbit(g) && g == 0 {
			negZeros++
		}
		if math.Signbit(w) && w == 0 {
			negZeros--
		}
	}
	if negZeros != 0 {
		t.Fatalf("census holds %+d more negative zeros than the oracle", negZeros)
	}
	if got.P != want.P || got.SamplesUsed != want.SamplesUsed ||
		math.Float64bits(got.DistinctSeen) != math.Float64bits(want.DistinctSeen) ||
		math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) {
		t.Fatalf("got P=%d n=%d distinct=%v σ=%v, oracle P=%d n=%d distinct=%v σ=%v",
			got.P, got.SamplesUsed, got.DistinctSeen, got.Sigma,
			want.P, want.SamplesUsed, want.DistinctSeen, want.Sigma)
	}
}

func TestWarmupMatchesPerPairOracle(t *testing.T) {
	cfg := countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 31}
	cases := []struct {
		name    string
		dim     int
		samples []stream.Sample
		mode    covstream.Mode
	}{
		{"sparse/second-moment", 4096, urlPrefix(t, 4096, 96), covstream.SecondMoment},
		// Centered mode pairs every feature with a non-zero running
		// mean, so its sparse prefix is kept short.
		{"sparse/centered", 1024, urlPrefix(t, 1024, 12), covstream.Centered},
		{"dense/second-moment", 48, simulationPrefix(t, 48, 64), covstream.SecondMoment},
		{"dense/centered", 48, simulationPrefix(t, 48, 64), covstream.Centered},
	}
	for _, c := range cases {
		for _, maxSeen := range []int{0, 257} {
			name := c.name + "/full"
			if maxSeen > 0 {
				name = c.name + "/kmv"
			}
			t.Run(name, func(t *testing.T) {
				src := func() stream.Source { return stream.NewSliceSource(c.samples, c.dim) }
				want := oracleWarmup(t, src(), len(c.samples), cfg, c.mode, maxSeen, 9)
				got, err := covstream.Warmup(src(), len(c.samples), cfg, c.mode, maxSeen, 9)
				if err != nil {
					t.Fatal(err)
				}
				if maxSeen > 0 && !(got.DistinctSeen > float64(len(got.Seen))) {
					t.Fatalf("census of %d keys did not evict (distinct estimate %v)", len(got.Seen), got.DistinctSeen)
				}
				sameWarmup(t, got, want)
			})
		}
	}
}

func TestAutoSpecMatchesPerPairOracle(t *testing.T) {
	sk := countsketch.Config{Tables: 5, Range: 1 << 11, Seed: 17}
	cases := []struct {
		name    string
		dim     int
		samples []stream.Sample
	}{
		{"sparse", 1 << 14, urlPrefix(t, 1<<14, 64)},
		{"dense", 64, simulationPrefix(t, 64, 96)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := oracleAutoSpec(t, c.samples, c.dim, 2, 20000, sk, 0.005)
			got, err := shard.AutoSpec(c.samples, c.dim, 2, 20000, sk, 0.005)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("AutoSpec = %+v, oracle %+v", got, want)
			}
		})
	}
}
