// Command perfbench is the repository's served-path benchmark: it starts
// a freshly built ascsd per workload, drives it over HTTP from this
// process with generated inputs, checks the answers, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sparse-mixed --seed 7 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run repeats the served workload for the
// daemon's /metrics deltas and then replays the same inputs in-process
// through the layers' public functions with spans around every call,
// reporting the per-layer metrics; the spans are written to
// <work>/traces/<workload>-seed<n>.jsonl. Workloads are defined in
// perfbench/workloads.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runOpts are the per-run settings shared by the served and traced runs.
type runOpts struct {
	daemon   string  // ascsd binary
	seconds  float64 // measured window
	runDir   string  // scratch for daemon logs and the WAL replay
	traceOut string  // span dump of the traced run
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see perfbench/workloads.json)")
		seed    = flag.Int64("seed", 1, "workload seed: the generated inputs depend on it alone")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		daemon  = flag.String("daemon", "", "ascsd binary built from this checkout")
		cfgPath = flag.String("config", "perfbench/workloads.json", "workload definitions")
		work    = flag.String("work", ".bench_build/work", "scratch directory for logs, WAL files and span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *daemon, *cfgPath, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, daemon, cfgPath, work string) error {
	if daemon == "" {
		return errors.New("-daemon is required (run through perfbench/run.sh)")
	}
	cfg, err := loadConfig(cfgPath)
	if err != nil {
		return err
	}
	w, err := cfg.workload(name)
	if err != nil {
		return err
	}
	o, err := prepare(work, w.Name, seed, seconds, daemon)
	if err != nil {
		return err
	}
	in, err := generate(w, seed)
	if err != nil {
		return err
	}
	res, lines, err := bench(o, w, in, seed, traced)
	for _, l := range lines {
		fmt.Println(l)
	}
	if res != nil {
		out, merr := json.Marshal(res)
		if merr != nil {
			return merr
		}
		fmt.Println(string(out))
	}
	return err
}

// prepare creates the run's scratch directories.
func prepare(work, name string, seed int64, seconds float64, daemon string) (runOpts, error) {
	o := runOpts{
		daemon:   daemon,
		seconds:  seconds,
		runDir:   filepath.Join(work, "run", name),
		traceOut: filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed)),
	}
	if err := os.RemoveAll(o.runDir); err != nil {
		return o, err
	}
	for _, dir := range []string{o.runDir, filepath.Dir(o.traceOut)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return o, err
		}
	}
	return o, nil
}

// bench runs one workload and returns the result line (nil on an
// infrastructure failure), the human-readable lines before it, and an
// error when the run failed, correctness included.
func bench(o runOpts, w workload, in *inputs, seed int64, traced bool) (*result, []string, error) {
	lines := []string{
		fmt.Sprintf("# workload %s seed %d window %.0fs trace %v | GOMAXPROCS %d nproc %d %s",
			w.Name, seed, o.seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()),
		fmt.Sprintf("# ascsd %s", strings.Join(w.daemonArgs("<addr>"), " ")),
		fmt.Sprintf("# inputs: %d samples (%.1f pairs/sample), %d per request, %d warm-up, %d planted pairs",
			len(in.samples), in.pairsPerSample, in.batch, w.Serve.Warmup, len(in.planted)),
	}
	s, err := runServed(o, w, in, seed, traced)
	var gate *gateError
	if err == nil && s.precision < minPrecision {
		err = &gateError{fmt.Sprintf("top-%d precision %.3f below %.3f", topK, s.precision, minPrecision)}
	}
	if errors.As(err, &gate) {
		return &result{Attempted: max(s.ops.attempted, 1), Failed: s.ops.failed, Metrics: map[string]metric{}}, lines, err
	}
	if err != nil {
		return nil, lines, err
	}
	if s.ops.firstErr != nil {
		lines = append(lines, fmt.Sprintf("# %d of %d operations failed; first: %v", s.ops.failed, s.ops.attempted, s.ops.firstErr))
	}
	res := &result{Correct: true, Attempted: s.ops.attempted, Failed: s.ops.failed, Metrics: map[string]metric{}}
	if traced {
		m := servedLayers(s)
		tm, err := runTraced(o, w, in, m["shard.ops_per_batch"])
		if err != nil {
			return nil, lines, err
		}
		for k, v := range tm {
			m[k] = v
		}
		m["setup.fit_share"] = ratio(m["stream.standardize_fit_s"], m["setup.served_s"])
		for _, l := range perLayer {
			v, ok := m[l.name]
			if !ok {
				return nil, lines, fmt.Errorf("per-layer metric %s was not measured", l.name)
			}
			res.Metrics[l.name] = metric{v, l.unit}
			lines = append(lines, fmt.Sprintf("%-36s %14.6g %s", l.name, v, l.unit))
		}
		lines = append(lines, fmt.Sprintf("# spans: %s", o.traceOut))
		return res, lines, nil
	}
	for _, e := range endToEnd(s) {
		res.Metrics[e.name] = metric{e.value, e.unit}
		line := fmt.Sprintf("%-22s %12.6g %s", e.name, e.value, e.unit)
		if e.pct > 0 {
			line += fmt.Sprintf("  (median of %d slices' p%g; a slice has %d or more samples, %d or more beyond)", slices, e.pct, e.n, e.beyond)
			if e.beyond < 10 {
				line += "  WARNING: a slice has fewer than 10 samples beyond the tail percentile"
			}
		}
		lines = append(lines, line)
	}
	lines = append(lines,
		fmt.Sprintf("# query tail %.6g ms, visible tail %.6g ms (p%g, median over slices; per-layer loadgen.* figures, too wide run to run to gate)",
			sliced(s.queryMs, tailPct/100.0), sliced(s.visibleMs, tailPct/100.0), float64(tailPct)),
		fmt.Sprintf("# set-up of each daemon start (s): %.4g", s.setupS))
	if s.latencyTrend() > 1.5 && w.Load.RatePerS > 0 {
		lines = append(lines, fmt.Sprintf("# WARNING: growing backlog — ingest latency trend %.2f, %g batches queued at the end of the window; the fixed rate is not sustained",
			s.latencyTrend(), s.endQueue))
	}
	return res, lines, nil
}

// e2e is one end-to-end metric with its tail bookkeeping.
type e2e struct {
	name, unit string
	value      float64
	pct        float64 // tail percentile, 0 for non-tail metrics
	// n and beyond are the samples of the smallest slice and the fewest
	// samples any slice has beyond its tail percentile.
	n, beyond int
}

func endToEnd(s *served) []e2e {
	p50 := func(name string, xs []float64) e2e {
		return e2e{name: name, unit: "ms", value: sliced(xs, 0.5)}
	}
	tail := func(name string, xs []float64) e2e {
		n, b := len(xs), len(xs)
		for _, part := range slice(xs) {
			n, b = min(n, len(part)), min(b, beyond(part, tailPct))
		}
		return e2e{name: name, unit: "ms", value: sliced(xs, tailPct/100.0), pct: tailPct, n: n, beyond: b}
	}
	return []e2e{
		{name: "ingest_samples_per_s", unit: "samples/s", value: median(s.rates)},
		p50("ingest_p50_ms", s.ingestMs),
		tail("ingest_tail_ms", s.ingestMs),
		p50("query_p50_ms", s.queryMs),
		p50("visible_p50_ms", s.visibleMs),
		{name: "setup_s", unit: "s", value: median(s.setupS)},
		{name: "peak_rss_mb", unit: "MB", value: s.rssMB},
		{name: "topk_precision", unit: "ratio", value: s.precision},
		{name: "ok_ratio", unit: "ratio", value: 1 - float64(s.ops.failed)/float64(s.ops.attempted)},
	}
}

// perLayer lists the per-layer metrics in report order with units.
var perLayer = []struct{ name, unit string }{
	{"server.decode_us_per_sample", "us"},
	{"server.http_ingest_ms", "ms"},
	{"server.http_topk_ms", "ms"},
	{"stream.validate_ns_per_sample", "ns"},
	{"stream.standardize_fit_s", "s"},
	{"setup.served_s", "s"},
	{"setup.fit_share", "ratio"},
	{"shard.auto_spec_s", "s"},
	{"shard.warmup_ingest_s", "s"},
	{"core.schedule_solve_ms", "ms"},
	{"shard.ingest_call_us_per_req", "us"},
	{"shard.ingest_wait_ms", "ms"},
	{"shard.apply_ms", "ms"},
	{"shard.worker_busy_share", "ratio"},
	{"shard.query_wait_ms", "ms"},
	{"shard.topk_query_wait_ms", "ms"},
	{"shard.topk_apply_ms", "ms"},
	{"shard.topk_merge_ms", "ms"},
	{"shard.queue_high_water", "batches"},
	{"shard.end_queue_depth", "batches"},
	{"shard.ingest_wait_trend", "ratio"},
	{"shard.ops_per_batch", "pairs"},
	{"core.ns_per_pair", "ns"},
	{"core.gate_admit_ratio", "ratio"},
	{"core.exploration_share", "ratio"},
	{"countsketch.wave_fallback_ratio", "ratio"},
	{"hashing.ns_per_pair", "ns"},
	{"topk.ns_per_offer", "ns"},
	{"topk.pruned_per_sample", "count"},
	{"topk.tracked", "count"},
	{"wal.append_us_per_record", "us"},
	{"wal.sync_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.window_ingest_p50_ms", "ms"},
	{"loadgen.window_ingest_tail_ms", "ms"},
	{"loadgen.query_tail_ms", "ms"},
	{"loadgen.visible_tail_ms", "ms"},
	{"loadgen.ingest_latency_trend", "ratio"},
	{"self.server_decode_us", "us"},
	{"self.shard_ingest_us", "us"},
	{"self.shard_topk_us", "us"},
	{"self.server_encode_us", "us"},
	{"self.request_unaccounted_us", "us"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}
