package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/covstream"
	"repro/internal/hashing"
	"repro/internal/pairs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Single goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newReq starts a new request id.
func (t *tracer) newReq() int { t.req++; return t.req }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.origin)) }

// do wraps fn in a span.
func (t *tracer) do(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// totals sums span durations and self times (duration minus the part
// covered by child spans) by name.
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		total[s.Name] += s.dur()
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.dur() - time.Duration(covered)
	}
	return total, self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced replays the workload's generated inputs in-process through
// the layers' public functions with spans around each call: the set-up
// derivation, the handler's request steps (decode → Manager.IngestCtx →
// Manager.TopKT → encode), and single-layer loops for the stream,
// core, hashing, topk and wal layers. opsPerBatch is the served run's
// mean shard batch size, which sizes the replayed WAL records.
func runTraced(o runOpts, w workload, in *inputs, opsPerBatch float64) (layerMetrics, error) {
	tr := newTracer()
	m := layerMetrics{}
	sv := w.serveOptions()
	rng := sv.MemoryFloats / (sv.Tables * shards)
	skCfg := countsketch.Config{Tables: sv.Tables, Range: rng, Seed: sv.Seed}

	// Set-up: standardizer fit, warm-up census, schedule solve.
	warm := in.samples[:w.Serve.Warmup]
	var invStd []float64
	var err error
	tr.do("stream.standardize_fit", 0, tr.newReq(), func() {
		var st *stream.Standardizer
		if st, err = stream.NewStandardizer(stream.NewSliceSource(warm, in.dim), len(warm), false); err == nil {
			invStd = st.InvStds()
		}
	})
	if err != nil {
		return nil, err
	}
	scaled := scale(warm, invStd)
	var spec shard.EngineSpec
	tr.do("shard.auto_spec", 0, tr.newReq(), func() {
		spec, err = shard.AutoSpec(scaled, in.dim, shards, sv.Samples, skCfg, sv.Alpha)
	})
	if err != nil {
		return nil, err
	}
	// The solver's inputs, derived as shard.AutoSpec derives them, so
	// that the solve can be timed on its own. A copy that no longer
	// solves to AutoSpec's schedule fails the run.
	warmCfg := skCfg
	warmCfg.Range = max(warmCfg.Range, 1<<16)
	warmCfg.Seed ^= 0x9c3
	census, err := covstream.Warmup(stream.NewSliceSource(scaled, in.dim), len(scaled), warmCfg, covstream.SecondMoment, 0, int64(skCfg.Seed))
	if err != nil {
		return nil, err
	}
	params := census.ASCSParams(sv.Alpha, sv.Samples, sv.Tables, rng)
	params.P = max((pairs.Count(in.dim)+int64(shards)-1)/int64(shards), 2)
	params = params.WithSuggestedDeltas()
	var hp core.Hyperparams
	tr.do("core.new_auto", 0, tr.newReq(), func() { _, hp, err = core.NewAuto(params, skCfg.Seed, true) })
	if err != nil {
		return nil, err
	}
	if hp != spec.Schedule {
		return nil, fmt.Errorf("the traced copy of shard.AutoSpec's derivation solved %+v, AutoSpec %+v", hp, spec.Schedule)
	}
	// The replayed engine is built as the shard layer builds its
	// engines from the spec.
	var eng *core.Engine
	if sv.Lambda != 0 {
		eng, err = core.NewEngineDecayed(skCfg, spec.Schedule, !spec.OneSided, sv.Lambda)
	} else {
		eng, err = core.NewEngine(skCfg, spec.Schedule, !spec.OneSided)
	}
	if err != nil {
		return nil, err
	}

	// The handler's request path on an in-process manager.
	mgr, err := shard.NewFromOptions(sv)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	ctx := context.Background()
	tr.do("shard.warmup_ingest", 0, tr.newReq(), func() {
		for b := 0; b < in.warmBodies && err == nil; b++ {
			var req server.IngestRequest
			if err = json.Unmarshal(in.bodies[b], &req); err == nil {
				_, _, err = mgr.IngestCtx(ctx, toSamples(req))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var untraced time.Duration
	var qWait, qApply, qMerge time.Duration
	traced := 0
	for i := range w.sizes.traceRequests {
		body := in.body(i)
		if i%2 == 1 {
			t0 := time.Now()
			if err := handle(ctx, mgr, body, topK, nil, nil, 0, 0); err != nil {
				return nil, err
			}
			untraced += time.Since(t0)
			continue
		}
		req := tr.newReq()
		root := tr.begin("request", 0, req)
		var qt shard.QueryTrace
		if err := handle(ctx, mgr, body, topK, &qt, tr, root, req); err != nil {
			return nil, err
		}
		tr.end(root)
		traced++
		qWait += qt.QueueWait
		qApply += qt.Apply
		qMerge += qt.Merge
	}
	total, self := tr.totals()
	perReq := func(d time.Duration) float64 { return float64(d) / float64(traced) / 1e3 } // µs
	m["server.decode_us_per_sample"] = float64(total["server.decode"]) / float64(traced*in.batch) / 1e3
	m["shard.ingest_call_us_per_req"] = perReq(total["shard.ingest"])
	m["shard.topk_query_wait_ms"] = perReq(qWait) / 1e3
	m["shard.topk_apply_ms"] = perReq(qApply) / 1e3
	m["shard.topk_merge_ms"] = perReq(qMerge) / 1e3
	m["self.server_decode_us"] = perReq(self["server.decode"])
	m["self.shard_ingest_us"] = perReq(self["shard.ingest"])
	m["self.shard_topk_us"] = perReq(self["shard.topk"])
	m["self.server_encode_us"] = perReq(self["server.encode"])
	m["self.request_unaccounted_us"] = perReq(self["request"])
	m["trace.unaccounted_share"] = ratio(float64(self["request"]), float64(total["request"]))
	untracedReqs := w.sizes.traceRequests - traced
	m["trace.overhead_share"] = ratio(float64(total["request"])/float64(traced), float64(untraced)/float64(untracedReqs)) - 1
	m["stream.standardize_fit_s"] = total["stream.standardize_fit"].Seconds()
	m["shard.auto_spec_s"] = total["shard.auto_spec"].Seconds()
	m["core.schedule_solve_ms"] = ms(total["core.new_auto"])
	m["shard.warmup_ingest_s"] = total["shard.warmup_ingest"].Seconds()

	// Single-layer loops over the workload's samples.
	layer := in.samples[:min(w.LayerSamples, len(in.samples))]
	m["stream.validate_ns_per_sample"] = float64(timeLoop(tr, "stream.validate", 50*time.Millisecond, func() {
		for _, s := range layer {
			if err := s.Validate(in.dim); err != nil {
				panic(err) // generated samples are valid by construction
			}
		}
	})) / float64(len(layer))

	keys, ests, nsPerPair := replayCore(tr, eng, spec.Schedule, in, invStd, w.LayerSamples)
	m["core.ns_per_pair"] = nsPerPair
	h, err := hashing.New(skCfg.Hash, skCfg.Tables, skCfg.Range, skCfg.Seed)
	if err != nil {
		return nil, err
	}
	const chunk = 4096
	slots := make([]hashing.Slot, chunk*skCfg.Tables)
	m["hashing.ns_per_pair"] = float64(timeLoop(tr, "hashing.fill_slots", 50*time.Millisecond, func() {
		for lo := 0; lo < len(keys); lo += chunk {
			ks := keys[lo:min(lo+chunk, len(keys))]
			h.FillSlotsBatch(ks, slots[:len(ks)*skCfg.Tables])
		}
	})) / float64(len(keys))
	m["topk.ns_per_offer"] = float64(timeLoop(tr, "topk.offer", 50*time.Millisecond, func() {
		t := topk.NewTracker(1 << 14)
		for i, k := range keys {
			t.Offer(k, ests[i])
		}
	})) / float64(len(keys))

	appendUs, syncMs, err := replayWAL(tr, o, w, opsPerBatch)
	if err != nil {
		return nil, err
	}
	m["wal.append_us_per_record"] = appendUs
	m["wal.sync_ms"] = syncMs
	if err := tr.write(o.traceOut); err != nil {
		return nil, err
	}
	return m, nil
}

// handle is the ingest handler's work followed by the top-k handler's,
// with spans under root when tr is non-nil.
func handle(ctx context.Context, mgr *shard.Manager, body []byte, k int, qt *shard.QueryTrace, tr *tracer, root, req int) error {
	step := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.do(name, root, req, fn)
	}
	var err error
	var samples []stream.Sample
	step("server.decode", func() {
		var r server.IngestRequest
		if err = json.Unmarshal(body, &r); err == nil {
			samples = toSamples(r)
		}
	})
	if err != nil {
		return err
	}
	var first, last int
	step("shard.ingest", func() { first, last, err = mgr.IngestCtx(ctx, samples) })
	if err != nil {
		return err
	}
	step("server.encode", func() {
		_, err = json.Marshal(server.IngestResponse{Accepted: len(samples), First: first, Last: last, Warming: mgr.Warming()})
	})
	if err != nil {
		return err
	}
	var ps []shard.PairEstimate
	step("shard.topk", func() { ps, err = mgr.TopKT(ctx, k, shard.ConsistencyFresh, true, qt) })
	if err != nil {
		return err
	}
	step("server.encode", func() {
		resp := server.TopKResponse{Step: mgr.Step(), Pairs: make([]server.PairJSON, len(ps)), Resolution: "full"}
		for i, p := range ps {
			resp.Pairs[i] = server.PairJSON{A: p.A, B: p.B, Key: p.Key, Estimate: p.Estimate}
		}
		_, err = json.Marshal(resp)
	})
	return err
}

func toSamples(r server.IngestRequest) []stream.Sample {
	out := make([]stream.Sample, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = stream.Sample{Idx: s.Idx, Val: s.Val}
	}
	return out
}

// scale applies the standardizer's factors as the manager does.
func scale(samples []stream.Sample, invStd []float64) []stream.Sample {
	out := make([]stream.Sample, len(samples))
	for i, s := range samples {
		v := make([]float64, len(s.Val))
		for j, ix := range s.Idx {
			v[j] = s.Val[j] * invStd[ix]
		}
		out[i] = stream.Sample{Idx: s.Idx, Val: v}
	}
	return out
}

// timeLoop runs fn under a span at least once and until minDur has
// passed, returning the mean duration of one pass.
func timeLoop(tr *tracer, name string, minDur time.Duration, fn func()) time.Duration {
	req := tr.newReq()
	var spent time.Duration
	n := 0
	for n == 0 || spent < minDur {
		id := tr.begin(name, 0, req)
		fn()
		tr.end(id)
		spent += tr.spans[id-1].dur()
		n++
	}
	return spent / time.Duration(n)
}

// maxKeys caps the pair keys kept from the core replay for the hashing
// and tracker loops.
const maxKeys = 1 << 20

// replayCore feeds one single-threaded ASCS engine (the per-shard sketch
// shape) the workload's standardized rows through OfferRow. The engine
// is first fed, untimed, past its exploration period T0, so the timed
// rows meet the sampling gate as the served engines do. It returns up
// to maxKeys of the timed pair keys with their |estimates| and the mean
// ns per offered pair.
func replayCore(tr *tracer, eng *core.Engine, hp core.Hyperparams, in *inputs, invStd []float64, n int) ([]uint64, []float64, float64) {
	var partners []uint64
	var xs, ests []float64
	offer := func(t int, s stream.Sample) time.Duration {
		s = scale([]stream.Sample{s}, invStd)[0]
		var spent time.Duration
		eng.BeginStep(t)
		for i := 0; i+1 < len(s.Idx); i++ {
			partners, xs = partners[:0], xs[:0]
			for j := i + 1; j < len(s.Idx); j++ {
				partners = append(partners, uint64(s.Idx[j]))
				xs = append(xs, s.Val[i]*s.Val[j])
			}
			if cap(ests) < len(xs) {
				ests = make([]float64, len(xs))
			}
			base := uint64(pairs.RowBase(s.Idx[i], in.dim))
			t0 := time.Now()
			eng.OfferRow(base, partners, xs, ests[:len(xs)])
			spent += time.Since(t0)
		}
		return spent
	}
	t := 1
	for ; t <= hp.T0+1; t++ {
		offer(t, in.samples[(t-1)%len(in.samples)])
	}
	var keys []uint64
	var kEsts []float64
	var spent time.Duration
	var offered int
	req := tr.newReq()
	for i := 0; i < n; i, t = i+1, t+1 {
		s := in.samples[(t-1)%len(in.samples)]
		id := tr.begin("core.offer_row", 0, req)
		spent += offer(t, s)
		tr.end(id)
		// Re-derive this sample's keys and |estimates| for the
		// hashing and tracker loops.
		p := 0
		for a := 0; a+1 < len(s.Idx); a++ {
			base := uint64(pairs.RowBase(s.Idx[a], in.dim))
			for b := a + 1; b < len(s.Idx); b++ {
				if len(keys) < maxKeys {
					k := base + uint64(s.Idx[b])
					keys = append(keys, k)
					kEsts = append(kEsts, math.Abs(eng.Estimate(k)))
				}
				p++
			}
		}
		offered += p
	}
	return keys, kEsts, float64(spent) / float64(offered)
}

// replayWAL appends records of the size a served shard batch of
// opsPerBatch pairs makes into a scratch log, syncing after each commit
// group, and returns µs per append and ms per sync.
func replayWAL(tr *tracer, o runOpts, w workload, opsPerBatch float64) (float64, float64, error) {
	size := max(int(math.Round(opsPerBatch*walBytesPerPair)), 1)
	records := w.sizes.walRecords
	dir := filepath.Join(o.runDir, "wal-replay")
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, Meta: wal.Meta{Dim: w.Input.Dim, Shards: shards}})
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	req := tr.newReq()
	var appendD, syncD time.Duration
	syncs := 0
	for i := 1; i <= records; i++ {
		id := tr.begin("wal.append", 0, req)
		err = l.Append(uint64(i), payload)
		tr.end(id)
		appendD += tr.spans[id-1].dur()
		if err != nil {
			l.Close()
			return 0, 0, err
		}
		if i%walRecordsPerSync == 0 || i == records {
			id := tr.begin("wal.sync", 0, req)
			err = l.Sync()
			tr.end(id)
			syncD += tr.spans[id-1].dur()
			syncs++
			if err != nil {
				l.Close()
				return 0, 0, err
			}
		}
	}
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	return float64(appendD) / float64(records) / 1e3, ms(syncD) / float64(syncs), nil
}
