package stream_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/stream"
)

// sequentialFit is the reference fit: each feature's stored values in
// stream order, then its implicit zeros one Welford.Add(0) at a time.
func sequentialFit(samples []stream.Sample, d int) (means, invStds []float64) {
	accs := make([]stats.Welford, d)
	for _, s := range samples {
		for i, ix := range s.Idx {
			accs[ix].Add(s.Val[i])
		}
	}
	means, invStds = make([]float64, d), make([]float64, d)
	for j := range accs {
		w := accs[j]
		for z := w.Count(); z < int64(len(samples)); z++ {
			w.Add(0)
		}
		if w.Count() > 0 {
			means[j] = w.Mean()
		}
		if sd := w.Std(); sd > 0 {
			invStds[j] = 1 / sd
		}
	}
	return means, invStds
}

// within reports whether got agrees with want to rel relative error
// (exactly when want is zero).
func within(got, want, rel float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= rel*math.Abs(want)
}

func TestStandardizerMatchesSequentialWelford(t *testing.T) {
	const d = 64
	rng := rand.New(rand.NewSource(3))
	gen := func(n int) []stream.Sample {
		out := make([]stream.Sample, n)
		for i := range out {
			row := make([]float64, d)
			// Feature 0 stays all-zero; feature 1 is a constant stored in
			// every sample; feature 2 is a constant stored in every other
			// sample; the rest are sparse with skewed scales.
			row[1] = 2.5
			if i%2 == 0 {
				row[2] = 1e-3
			}
			for j := 3; j < d; j++ {
				if rng.Float64() < 0.2+0.6*float64(j)/d {
					row[j] = rng.NormFloat64()*math.Pow(10, float64(j%9-4)) + float64(j%3)
				}
			}
			out[i] = stream.FromDense(row)
		}
		return out
	}
	cases := []struct {
		name    string
		samples []stream.Sample
		fitN    int
	}{
		{"n=2", gen(2), 2},
		{"n=37", gen(37), 37},
		{"n=512", gen(512), 512},
		{"fitN past the stream", gen(20), 100},
	}
	for _, c := range cases {
		for _, center := range []bool{false, true} {
			st, err := stream.NewStandardizer(stream.NewSliceSource(c.samples, d), c.fitN, center)
			if err != nil {
				t.Fatal(err)
			}
			wantMeans, wantInv := sequentialFit(c.samples[:min(c.fitN, len(c.samples))], d)
			inv := st.InvStds()
			for j := range wantInv {
				if !within(inv[j], wantInv[j], 1e-14) {
					t.Errorf("%s center=%v: invStd[%d] = %v, sequential %v", c.name, center, j, inv[j], wantInv[j])
				}
			}
			if inv[0] != 0 || inv[1] != 0 {
				t.Errorf("%s: all-zero / constant features scaled by %v / %v, want 0", c.name, inv[0], inv[1])
			}
			if !center {
				if st.Means() != nil {
					t.Errorf("%s: scale-only fit allocated means", c.name)
				}
				continue
			}
			means := st.Means()
			for j := range wantMeans {
				if !within(means[j], wantMeans[j], 1e-14) {
					t.Errorf("%s: mean[%d] = %v, sequential %v", c.name, j, means[j], wantMeans[j])
				}
			}
			// The replay still yields every sample, standardized.
			if got := len(stream.Drain(st)); got != len(c.samples) {
				t.Errorf("%s: replayed %d samples, want %d", c.name, got, len(c.samples))
			}
		}
	}
}

// fitSink keeps the benchmarked fits observable.
var fitSink []float64

// benchFit times the prefix fit of a standardizer over samples.
func benchFit(b *testing.B, samples []stream.Sample, d int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := stream.NewStandardizer(stream.NewSliceSource(samples, d), len(samples), false)
		if err != nil {
			b.Fatal(err)
		}
		fitSink = st.InvStds()
	}
}

// BenchmarkStandardizerFitSparse fits the sparse-mixed warm-up prefix
// shape: 512 URL-like samples over d = 2^18.
func BenchmarkStandardizerFitSparse(b *testing.B) {
	const d = 1 << 18
	c := dataset.URLConfig{Dim: d, GroupSize: 3, Groups: 2000, ActiveGroups: 12, FireProb: 0.95, BackgroundNZ: 20, Seed: 1}
	src, err := c.NewSource(512)
	if err != nil {
		b.Fatal(err)
	}
	benchFit(b, stream.Drain(src), d)
}

// BenchmarkStandardizerFitDense fits the dense-ingest warm-up prefix
// shape: 256 dense simulation samples over d = 160.
func BenchmarkStandardizerFitDense(b *testing.B) {
	ds := dataset.Simulation(160, 256, 0.005, 1)
	var samples []stream.Sample
	for _, row := range ds.Rows {
		samples = append(samples, stream.FromDense(row))
	}
	benchFit(b, samples, 160)
}
