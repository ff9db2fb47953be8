package covstream

import (
	"math"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/topk"
)

// TestWarmupProbeCensusesEveryIngestPath offers one sample's triangle
// through each ingest method of the census probe and requires the same
// census (Σx², pair count, distinct keys) and sketch state every time.
func TestWarmupProbeCensusesEveryIngestPath(t *testing.T) {
	ids := []uint64{2, 5, 9, 14}
	vals := []float64{1.5, -0.25, 3, 0.5}
	const d = 16
	var bases []uint64
	var keys []uint64
	var xs []float64
	for i := 0; i+1 < len(ids); i++ {
		base := uint64(pairs.RowBase(int(ids[i]), d))
		bases = append(bases, base)
		for j := i + 1; j < len(ids); j++ {
			keys = append(keys, base+ids[j])
			xs = append(xs, vals[i]*vals[j])
		}
	}
	paths := map[string]func(p *warmupProbe){
		"Offer": func(p *warmupProbe) {
			for i, k := range keys {
				p.Offer(k, xs[i])
			}
		},
		"OfferEstimate": func(p *warmupProbe) {
			for i, k := range keys {
				p.OfferEstimate(k, xs[i])
			}
		},
		"OfferPairs": func(p *warmupProbe) { p.OfferPairs(keys, xs, nil) },
		"OfferRow": func(p *warmupProbe) {
			n := 0
			for i := 0; i+1 < len(ids); i++ {
				m := len(ids) - i - 1
				p.OfferRow(bases[i], ids[i+1:], xs[n:n+m], nil)
				n += m
			}
		},
		"OfferRows": func(p *warmupProbe) { p.OfferRows(bases, ids, vals, vals, nil) },
	}
	var ref *warmupProbe
	for name, offer := range paths {
		ms, err := countsketch.NewMeanSketch(countsketch.Config{Tables: 3, Range: 64, Seed: 1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		p := &warmupProbe{ms: ms, sampler: topk.NewBottomK(100, 1)}
		p.BeginStep(1)
		offer(p)
		if p.n != int64(len(keys)) || p.sampler.Len() != len(keys) {
			t.Fatalf("%s: censused %d offers / %d keys, want %d", name, p.n, p.sampler.Len(), len(keys))
		}
		if ref == nil {
			ref = p
			continue
		}
		if math.Float64bits(p.sumX2) != math.Float64bits(ref.sumX2) {
			t.Fatalf("%s: Σx² = %v, other path %v", name, p.sumX2, ref.sumX2)
		}
		for _, k := range keys {
			if a, b := p.Estimate(k), ref.Estimate(k); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: estimate of %d = %v, other path %v", name, k, a, b)
			}
		}
	}
}
