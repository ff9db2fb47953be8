package shard_test

import (
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/stream"
)

// benchAutoSpec times the schedule derivation over a scaled warm-up
// prefix with a 2-shard sketch of mem cells, as ascsd -shards 2 -mem
// derives it.
func benchAutoSpec(b *testing.B, samples []stream.Sample, dim, mem, horizon int) {
	st, err := stream.NewStandardizer(stream.NewSliceSource(samples, dim), len(samples), false)
	if err != nil {
		b.Fatal(err)
	}
	scaled := stream.Drain(st)
	sk := countsketch.Config{Tables: 5, Range: mem / (5 * 2), Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.AutoSpec(scaled, dim, 2, horizon, sk, 0.005); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoSpecSparse derives the sparse-mixed schedule: 512
// URL-like samples over d = 2^18, -mem 262144, T = 20000.
func BenchmarkAutoSpecSparse(b *testing.B) {
	const d = 1 << 18
	c := dataset.URLConfig{Dim: d, GroupSize: 3, Groups: 2000, ActiveGroups: 12, FireProb: 0.95, BackgroundNZ: 20, Seed: 1}
	src, err := c.NewSource(512)
	if err != nil {
		b.Fatal(err)
	}
	benchAutoSpec(b, stream.Drain(src), d, 262144, 20000)
}

// BenchmarkAutoSpecDense derives the dense-ingest schedule: 256 dense
// simulation samples over d = 160, -mem 4194304, T = 10^6.
func BenchmarkAutoSpecDense(b *testing.B) {
	ds := dataset.Simulation(160, 256, 0.005, 1)
	var samples []stream.Sample
	for _, row := range ds.Rows {
		samples = append(samples, stream.FromDense(row))
	}
	benchAutoSpec(b, samples, 160, 4194304, 1_000_000)
}
