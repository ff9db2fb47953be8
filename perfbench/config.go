package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/shard"
)

// config is perfbench/workloads.json: the workload definitions the
// benchmark runs. The file also carries documentation the program does
// not read (provenance, the reason for each workload, the layer
// predictions and their measured values); encoding/json skips it.
type config struct {
	Workloads []workload `json:"workloads"`
}

// workload is one traffic mix against one freshly started ascsd. Only
// what differs between workloads is read from the file; the rest are
// the constants below.
type workload struct {
	Name  string    `json:"name"`
	Input inputSpec `json:"input"`
	Serve serveSpec `json:"serve"`
	Load  loadSpec  `json:"load"`
	// LayerSamples bounds the samples replayed through the traced run's
	// single-layer loops (core, hashing, topk).
	LayerSamples int       `json:"layer_samples"`
	Tiny         *tinySpec `json:"tiny,omitempty"`
	// sizes is fullSizes, or tinySizes after shrink.
	sizes runSizes
}

// Settings shared by every workload.
const (
	topK         = 32  // k of every top-k query and of the precision gate
	tailPct      = 90  // percentile of every *_tail_ms metric, per latency slice
	minPrecision = 0.9 // the correctness gate's top-k precision floor
	shards       = 2   // ascsd -shards
	// The WAL replay writes records of the size and in the commit groups
	// the dropped sparse-wal workload measured on the served WAL
	// (-wal-sync batch): 17.4 bytes per pair and 8.9 records per fsync.
	walBytesPerPair   = 17.4
	walRecordsPerSync = 9
)

// runSizes are the repetition counts of one run.
type runSizes struct {
	// setupReps is how many daemons an untraced run starts to measure
	// set-up time; the last one serves the measured window.
	setupReps int
	// traceRequests is the number of replayed decode→ingest→top-k→encode
	// requests in the traced run (half traced, half untraced, interleaved).
	traceRequests int
	// walRecords is the number of records appended in the WAL replay.
	walRecords int
}

var (
	fullSizes = runSizes{setupReps: 7, traceRequests: 200, walRecords: 200}
	tinySizes = runSizes{setupReps: 1, traceRequests: 20, walRecords: 8}
)

// inputSpec selects the generator and its parameters. The stream the
// daemon sees is the pool of generated samples, sent in order in
// batches of Batch and replayed from the start once exhausted; the
// first Warmup samples are the ASCS warm-up prefix.
type inputSpec struct {
	// Kind is "simulation" (dataset.Simulation, dense Gaussian with
	// planted modules) or "url" (dataset.URLConfig, sparse binary).
	Kind string `json:"kind"`
	Dim  int    `json:"dim"`
	// Alpha is the simulation's planted-pair share.
	Alpha float64 `json:"alpha,omitempty"`
	// URL generator parameters (see dataset.URLConfig).
	GroupSize    int     `json:"group_size,omitempty"`
	Groups       int     `json:"groups,omitempty"`
	ActiveGroups int     `json:"active_groups,omitempty"`
	FireProb     float64 `json:"fire_prob,omitempty"`
	BackgroundNZ int     `json:"background_nz,omitempty"`
	// Pool is the number of generated samples.
	Pool int `json:"pool"`
	// Batch is the number of samples per ingest request.
	Batch int `json:"batch"`
}

// serveSpec is the daemon configuration; everything not named here is
// left at ascsd's defaults.
type serveSpec struct {
	// Samples is the stream horizon T (-samples).
	Samples int `json:"samples"`
	// Decay, when non-zero, is -decay: 1 serves an unbounded stream
	// with the fixed-horizon arithmetic of T = Samples.
	Decay  float64 `json:"decay,omitempty"`
	Warmup int     `json:"warmup"`
	// Mem is the sketch budget in float64 cells over all shards (-mem).
	Mem int `json:"mem"`
}

// loadSpec is the traffic shape.
type loadSpec struct {
	// IngestConns closed-loop ingest connections (ignored when
	// RatePerS is set: the open loop uses one connection).
	IngestConns int `json:"ingest_conns"`
	// RatePerS, when positive, runs the window open loop: write-then-read
	// probes (one ingest request, then one fresh top-k) at this fixed
	// rate on one connection, timed from scheduled send times.
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// Probes is the number of write-then-read probes run sequentially on
	// one connection between set-up and the measured window of
	// closed-loop workloads. They supply the latencies of workloads whose
	// window only ingests.
	Probes int `json:"probes,omitempty"`
}

// tinySpec shrinks a workload for the package's smoke tests.
type tinySpec struct {
	Dim    int     `json:"dim"`
	Alpha  float64 `json:"alpha,omitempty"`
	Groups int     `json:"groups,omitempty"`
	Pool   int     `json:"pool"`
	Warmup int     `json:"warmup"`
	Probes int     `json:"probes"`
}

func loadConfig(path string) (*config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading config: %w", err)
	}
	var c config
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &c, nil
}

func (c *config) workload(name string) (workload, error) {
	for _, w := range c.Workloads {
		if w.Name == name {
			w.sizes = fullSizes
			return w, w.validate()
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shrink returns the workload at its smoke-test size.
func (w workload) shrink() workload {
	if w.Tiny == nil {
		return w
	}
	t := *w.Tiny
	w.Input.Dim, w.Input.Pool = t.Dim, t.Pool
	if t.Alpha > 0 {
		w.Input.Alpha = t.Alpha
	}
	if t.Groups > 0 {
		w.Input.Groups = t.Groups
	}
	w.Serve.Warmup = t.Warmup
	w.Load.Probes = t.Probes
	w.LayerSamples = 64
	w.sizes = tinySizes
	return w
}

func (w workload) validate() error {
	in, sv := w.Input, w.Serve
	switch {
	case in.Batch < 1 || in.Pool < 2*in.Batch:
		return fmt.Errorf("workload %s: pool %d must hold at least two batches of %d", w.Name, in.Pool, in.Batch)
	case sv.Warmup < 2 || sv.Warmup%in.Batch != 0 || sv.Warmup >= in.Pool:
		return fmt.Errorf("workload %s: warm-up %d must be a multiple of the batch %d below the pool %d", w.Name, sv.Warmup, in.Batch, in.Pool)
	case w.Load.RatePerS <= 0 && w.Load.IngestConns < 1:
		return fmt.Errorf("workload %s: needs ingest_conns or rate_per_s", w.Name)
	case w.Load.RatePerS <= 0 && w.Load.Probes < 1:
		return fmt.Errorf("workload %s: closed-loop workloads need probes for query latency", w.Name)
	case sv.Mem < 1:
		return fmt.Errorf("workload %s: mem must be ≥ 1", w.Name)
	case w.LayerSamples < 1:
		return fmt.Errorf("workload %s: layer_samples must be ≥ 1", w.Name)
	}
	return nil
}

// Daemon defaults mirrored by the in-process replay (ascsd's flag
// defaults for everything the workload does not set).
const (
	defTables = 5
	defAlpha  = 0.005
	defSeed   = 1
)

// daemonArgs renders the ascsd command line for the workload.
func (w workload) daemonArgs(addr string) []string {
	sv := w.Serve
	args := []string{
		"-addr", addr,
		"-dim", strconv.Itoa(w.Input.Dim),
		"-engine", "ascs",
		"-shards", strconv.Itoa(shards),
		"-samples", strconv.Itoa(sv.Samples),
		"-mem", strconv.Itoa(sv.Mem),
		"-warmup", strconv.Itoa(sv.Warmup),
	}
	if sv.Decay != 0 {
		args = append(args, "-decay", strconv.FormatFloat(sv.Decay, 'g', -1, 64))
	}
	return args
}

// serveOptions is the in-process twin of daemonArgs.
func (w workload) serveOptions() shard.ServeOptions {
	sv := w.Serve
	return shard.ServeOptions{
		Dim:          w.Input.Dim,
		Samples:      sv.Samples,
		Lambda:       sv.Decay,
		Shards:       shards,
		Kind:         shard.KindASCS,
		Tables:       defTables,
		MemoryFloats: sv.Mem,
		Seed:         defSeed,
		Alpha:        defAlpha,
		Standardize:  true,
		Warmup:       sv.Warmup,
	}
}
