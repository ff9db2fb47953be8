package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/shard"
)

// TestInstrumentUnencodableResponse: a handler result that JSON cannot
// encode (a non-finite float) fails as a 500 carrying an error body,
// counted as an endpoint error, not as an empty 200.
func TestInstrumentUnencodableResponse(t *testing.T) {
	mgr, err := shard.New(shard.Config{
		Dim: 4, Shards: 1,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 64, Seed: 1}, T: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, Options{})
	defer s.Close()
	h := s.instrument("probe", func(w http.ResponseWriter, r *http.Request) (any, error) {
		return map[string]float64{"estimate": math.Inf(1)}, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/probe", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not an error envelope (%v)", rec.Body.String(), err)
	}
	if got := s.metrics.endpoint("probe").errors.Load(); got != 1 {
		t.Fatalf("endpoint errors = %d, want 1", got)
	}
}
