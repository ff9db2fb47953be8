package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke tests hold the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var ascsdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	ascsdBin = filepath.Join(dir, "ascsd")
	build := exec.Command("go", "build", "-o", ascsdBin, "repro/cmd/ascsd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("building ascsd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func loadSpecs(t *testing.T) (*config, benchmarkSpec) {
	t.Helper()
	cfg, err := loadConfig("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return cfg, spec
}

// tinyRun runs one workload at its smoke-test size for one second.
func tinyRun(t *testing.T, cfg *config, name string, traced bool, corrupt func(*inputs)) (*result, error) {
	t.Helper()
	w, err := cfg.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	o, err := prepare(t.TempDir(), w.Name, 3, 1, ascsdBin)
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(in)
	}
	res, _, err := bench(o, w, in, 3, traced)
	return res, err
}

// TestSmokeMetrics runs every workload of BENCHMARK.json at its tiny size,
// untraced and traced, and checks that each named metric is emitted
// with its unit and a finite value.
func TestSmokeMetrics(t *testing.T) {
	cfg, spec := loadSpecs(t)
	if len(spec.Workloads) != len(cfg.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json defines %d", len(spec.Workloads), len(cfg.Workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := tinyRun(t, cfg, wl.Name, traced, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateTripsOnWrongTruth hands the correctness gate a planted-pair
// set of the same size made only of non-signal pairs: the run must fail
// and report correct=false.
func TestGateTripsOnWrongTruth(t *testing.T) {
	cfg, _ := loadSpecs(t)
	for _, name := range []string{"dense-ingest", "sparse-mixed"} {
		res, err := tinyRun(t, cfg, name, false, func(in *inputs) {
			wrong := map[uint64]bool{}
			for k := range in.planted {
				if !in.planted[k+1] {
					wrong[k+1] = true
				}
			}
			in.planted = wrong
		})
		var gate *gateError
		if !errors.As(err, &gate) {
			t.Fatalf("%s: want a correctness-gate error, got %v", name, err)
		}
		if res == nil || res.Correct {
			t.Fatalf("%s: want a result with correct=false, got %+v", name, res)
		}
	}
}

func TestCheckRanges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ranges   [][2]int
		accepted int
		ok       bool
	}{
		{"contiguous out of order", [][2]int{{5, 8}, {1, 4}}, 8, true},
		{"gap", [][2]int{{1, 4}, {6, 8}}, 7, false},
		{"duplicate", [][2]int{{1, 4}, {4, 7}}, 8, false},
		{"short of accepted", [][2]int{{1, 4}}, 5, false},
	} {
		r := &recorder{ranges: tc.ranges, accepted: tc.accepted}
		if err := r.checkRanges(); (err == nil) != tc.ok {
			t.Errorf("%s: checkRanges() = %v", tc.name, err)
		}
	}
}

func TestPerSecond(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms, n int) answer { return answer{t0.Add(time.Duration(ms) * time.Millisecond), n} }
	for _, tc := range []struct {
		name string
		as   []answer
		want []float64
	}{
		{"two spans, partial tail dropped", []answer{at(0, 4), at(500, 4), at(1000, 4), at(1500, 8), at(2000, 8), at(2400, 4)}, []float64{8, 16}},
		{"span ends at the first answer a second on", []answer{at(0, 4), at(600, 4), at(1250, 4)}, []float64{8 / 1.25}},
		{"under a second in all", []answer{at(0, 4), at(250, 4), at(500, 4)}, []float64{16}},
		{"one answer", []answer{at(0, 4)}, nil},
	} {
		got := perSecond(tc.as)
		if len(got) != len(tc.want) {
			t.Errorf("%s: perSecond = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("%s: perSecond = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestSliced checks that one slow slice does not move the reported
// quantile: the median over slices ignores it.
func TestSliced(t *testing.T) {
	var xs []float64
	for i := range slices {
		for j := range 20 {
			v := float64(j + 1)
			if i == 1 {
				v *= 10 // a slow stretch
			}
			xs = append(xs, v)
		}
	}
	if got := sliced(xs, 0.5); got != 10 {
		t.Errorf("sliced p50 = %v, want 10", got)
	}
	if got := sliced(xs, 0.9); got != 18 {
		t.Errorf("sliced p90 = %v, want 18", got)
	}
	parts := slice(xs[:len(xs)-1])
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if len(parts) != slices || n != len(xs)-1 {
		t.Errorf("slice: %d parts holding %d values, want %d holding %d", len(parts), n, slices, len(xs)-1)
	}
}
