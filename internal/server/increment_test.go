package server_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestIngestNonFiniteIncrement400: a sample whose pair product
// overflows (1e200·1e200 = +Inf) is refused with 400 before any step is
// assigned, and the daemon keeps serving ingest, stats and top-k.
func TestIngestNonFiniteIncrement400(t *testing.T) {
	_, ts := newTestServer(t, shard.Config{
		Dim: 16, Shards: 2,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 5, Range: 256, Seed: 1}, T: 1000},
	}, server.Options{})
	body := `{"samples":[{"idx":[3,7],"val":[1e200,1e200]}]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "pair increment") {
		t.Fatalf("non-finite ingest: status %d body %q, want 400 naming the pair increment", resp.StatusCode, msg.String())
	}
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", server.IngestRequest{
		Samples: []server.SampleJSON{{Idx: []int{3, 7}, Val: []float64{1.5, -2}}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up ingest status %d: %s", resp.StatusCode, body)
	}
	var st server.StatsResponse
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Manager.Step != 1 {
		t.Fatalf("step = %d after one accepted sample, want 1", st.Manager.Step)
	}
	var top server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=3", &top); resp.StatusCode != http.StatusOK || len(top.Pairs) == 0 {
		t.Fatalf("topk status %d with %d pairs", resp.StatusCode, len(top.Pairs))
	}
}
