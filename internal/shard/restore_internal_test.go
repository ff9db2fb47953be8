package shard

import (
	"testing"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

// TestRestoreKeepsFusedPath is the regression pin for a silent perf
// cliff: Restore must wire the row ingest path (worker.row) exactly as
// Manager.start does, and an engine without one is refused at
// construction rather than served by a slower fallback.
func TestRestoreKeepsFusedPath(t *testing.T) {
	m, err := New(Config{
		Dim: 10,
		Engine: EngineSpec{
			Kind:   KindCS,
			Sketch: countsketch.Config{Tables: 3, Range: 64, Seed: 1},
			T:      100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, w := range m.workers {
		if w.row == nil {
			t.Fatal("fresh manager worker lacks the row path (test setup broken)")
		}
	}
	if _, _, err := m.Ingest([]stream.Sample{{Idx: []int{0, 1}, Val: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range r.workers {
		if w.row == nil {
			t.Fatalf("restored worker %d lost the row ingest path", i)
		}
	}
	if _, err := rowOfferer(rowlessEngine{}); err == nil {
		t.Fatal("an engine without OfferRow was accepted")
	}
}

// rowlessEngine is a Snapshotter without the row ingest path.
type rowlessEngine struct{ sketchapi.Snapshotter }

func (rowlessEngine) Name() string { return "rowless" }
