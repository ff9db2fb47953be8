package main

// layerMetrics maps per-layer metric names to values.
type layerMetrics map[string]float64

// delta is a counter's change between two scrapes.
func delta(a, b prom, name string, labels ...string) float64 {
	return b.sum(name, labels...) - a.sum(name, labels...)
}

// histMeanMs is a histogram's mean observation between two scrapes, in
// ms (the daemon exports seconds).
func histMeanMs(a, b prom, name string, labels ...string) float64 {
	return 1e3 * ratio(delta(a, b, name+"_sum", labels...), delta(a, b, name+"_count", labels...))
}

// servedLayers derives the per-layer metrics of the served run from the
// daemon's /metrics deltas over the measured window, the probes of
// closed-loop workloads included.
func servedLayers(s *served) layerMetrics {
	m0, m1 := s.m0, s.m1
	acc := float64(s.accepted)
	applyS := delta(m0, m1, "ascs_shard_apply_seconds_sum")
	offered := delta(m0, m1, "ascs_gate_offered_total")
	explored := delta(m0, m1, "ascs_exploration_inserts_total")
	return layerMetrics{
		"server.http_ingest_ms":           histMeanMs(m0, m1, "ascs_http_request_duration_seconds", `route="ingest"`),
		"server.http_topk_ms":             histMeanMs(m0, m1, "ascs_http_request_duration_seconds", `route="topk"`),
		"shard.ingest_wait_ms":            histMeanMs(m0, m1, "ascs_shard_ingest_wait_seconds"),
		"shard.apply_ms":                  histMeanMs(m0, m1, "ascs_shard_apply_seconds"),
		"shard.worker_busy_share":         ratio(applyS, s.windowS*shards),
		"shard.query_wait_ms":             histMeanMs(m0, m1, "ascs_shard_query_wait_seconds", `lane="fresh"`),
		"shard.queue_high_water":          s.queueHigh,
		"shard.ops_per_batch":             ratio(delta(m0, m1, "ascs_shard_batch_ops_sum"), delta(m0, m1, "ascs_shard_batch_ops_count")),
		"shard.end_queue_depth":           s.endQueue,
		"core.gate_admit_ratio":           ratio(delta(m0, m1, "ascs_gate_admitted_total"), offered),
		"core.exploration_share":          ratio(explored, explored+offered),
		"countsketch.wave_fallback_ratio": ratio(delta(m0, m1, "ascs_wave_fallback_total"), delta(m0, m1, "ascs_wave_groups_total")),
		"topk.pruned_per_sample":          ratio(delta(m0, m1, "ascs_topk_tracker_pruned_total"), acc),
		"topk.tracked":                    m1.sum("ascs_topk_tracked"),
		"loadgen.lag_ms":                  quantile(s.lagMs, tailPct/100.0),
		"loadgen.window_ingest_p50_ms":    median(s.windowMs),
		"loadgen.window_ingest_tail_ms":   quantile(s.windowMs, tailPct/100.0),
		"loadgen.ingest_latency_trend":    s.latencyTrend(),
		"loadgen.query_tail_ms":           sliced(s.queryMs, tailPct/100.0),
		"loadgen.visible_tail_ms":         sliced(s.visibleMs, tailPct/100.0),
		"shard.ingest_wait_trend":         ratio(histMeanMs(s.mid, m1, "ascs_shard_ingest_wait_seconds"), histMeanMs(m0, s.mid, "ascs_shard_ingest_wait_seconds")),
		"setup.served_s":                  s.setupS[len(s.setupS)-1],
	}
}
