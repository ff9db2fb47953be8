package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pairs"
	"repro/internal/server"
	"repro/internal/stream"
)

// inputs is everything the benchmark sends and checks against, made
// from the workload seed alone.
type inputs struct {
	dim     int
	samples []stream.Sample
	// bodies[i] is the encoded server.IngestRequest of samples
	// [i·batch, (i+1)·batch).
	bodies [][]byte
	batch  int
	// warmBodies leading bodies form the warm-up prefix.
	warmBodies int
	// planted holds the generator's ground-truth signal pair keys.
	planted map[uint64]bool
	// pairsPerSample is the mean upper-triangle pair count per sample.
	pairsPerSample float64
}

func generate(w workload, seed int64) (*inputs, error) {
	in := w.Input
	var samples []stream.Sample
	planted := map[uint64]bool{}
	switch in.Kind {
	case "simulation":
		ds := dataset.Simulation(in.Dim, in.Pool, in.Alpha, seed)
		for _, row := range ds.Rows {
			samples = append(samples, stream.FromDense(row))
		}
		corr, err := ds.Corr()
		if err != nil {
			return nil, err
		}
		for a := 0; a < in.Dim; a++ {
			for b := a + 1; b < in.Dim; b++ {
				if corr.At(a, b) != 0 {
					planted[pairs.Key(a, b, in.Dim)] = true
				}
			}
		}
		if n := dataset.SimulationSignalPairs(ds); n != len(planted) {
			return nil, fmt.Errorf("simulation ground truth: %d planted pairs, dataset reports %d", len(planted), n)
		}
	case "url":
		c := dataset.URLConfig{
			Dim: in.Dim, GroupSize: in.GroupSize, Groups: in.Groups, ActiveGroups: in.ActiveGroups,
			FireProb: in.FireProb, BackgroundNZ: in.BackgroundNZ, Seed: seed,
		}
		src, err := c.NewSource(in.Pool)
		if err != nil {
			return nil, err
		}
		samples = stream.Drain(src)
		for _, p := range c.SignalPairs() {
			planted[p.Key(in.Dim)] = true
		}
	default:
		return nil, fmt.Errorf("unknown input kind %q", in.Kind)
	}
	if len(planted) < topK {
		return nil, fmt.Errorf("workload %s: top-k %d exceeds the %d planted pairs", w.Name, topK, len(planted))
	}
	out := &inputs{dim: in.Dim, samples: samples, batch: in.Batch, warmBodies: w.Serve.Warmup / in.Batch, planted: planted}
	var npairs int
	for _, s := range samples {
		npairs += len(s.Idx) * (len(s.Idx) - 1) / 2
	}
	out.pairsPerSample = float64(npairs) / float64(len(samples))
	for lo := 0; lo+in.Batch <= len(samples); lo += in.Batch {
		req := server.IngestRequest{Samples: make([]server.SampleJSON, in.Batch)}
		for i, s := range samples[lo : lo+in.Batch] {
			req.Samples[i] = server.SampleJSON{Idx: s.Idx, Val: s.Val}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out.bodies = append(out.bodies, body)
	}
	return out, nil
}

// body returns the i-th request body of the post-warm-up stream: the
// pool is replayed in order, wrapping to its start when exhausted.
func (in *inputs) body(i int) []byte {
	n := len(in.bodies)
	return in.bodies[(in.warmBodies+i)%n]
}

// precision is the share of pairs that are planted signal pairs.
func (in *inputs) precision(ps []server.PairJSON) float64 {
	if len(ps) == 0 {
		return 0
	}
	hit := 0
	for _, p := range ps {
		if in.planted[pairs.Key(p.A, p.B, in.dim)] {
			hit++
		}
	}
	return float64(hit) / float64(len(ps))
}
