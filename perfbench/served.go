package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// served is the outcome of one run against a freshly started ascsd.
type served struct {
	setupS   []float64 // exec → first fresh top-k 200, one per daemon start
	windowS  float64   // length of the measured window
	accepted int       // samples accepted inside the window
	// rates are the window's ingest rates over consecutive spans of about
	// a second, by answer time (see perSecond); the reported throughput is
	// their median, so a few slow seconds of a shared host do not move it.
	rates []float64
	// windowMs are the ingest latencies of the measured window, in ms,
	// timed from the scheduled send in the open loop and from the send
	// in the closed loop.
	windowMs []float64
	// The reported latencies in ms, in send order: the open loop's
	// window, or the sequential probes of closed-loop workloads, since at
	// closed-loop saturation the ingest latency is set by which request
	// the runtime schedules first and its median jumps between modes.
	ingestMs, queryMs, visibleMs []float64
	// lagMs is how late the generator sent each ingest: after its
	// scheduled time in the open loop, after the connection's previous
	// answer in the closed loop.
	lagMs     []float64
	rssMB     float64
	precision float64
	// Scrapes of /metrics at the window's start and end; traced runs add
	// one at mid-window.
	m0, mid, m1 prom
	// queueHigh is the deepest per-shard ingest queue the traced run's
	// periodic scrapes saw inside the window, in batches.
	queueHigh float64
	// endQueue is the summed shard ingest-queue depth when the window
	// closed.
	endQueue float64
	ops      *recorder
}

// recorder accounts every operation of a run and the step ranges the
// daemon assigned to accepted ingest batches.
type recorder struct {
	mu                sync.Mutex
	attempted, failed int
	accepted          int
	ranges            [][2]int
	firstErr          error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// ingest records one ingest outcome and reports whether it succeeded.
func (r *recorder) ingest(resp server.IngestResponse, err error, want int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil && resp.Accepted != want {
		err = fmt.Errorf("ingest accepted %d of %d samples", resp.Accepted, want)
	}
	if err != nil {
		r.fail(err)
		return false
	}
	r.accepted += resp.Accepted
	r.ranges = append(r.ranges, [2]int{resp.First, resp.Last})
	return true
}

// query records one query outcome and reports whether it succeeded.
func (r *recorder) query(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

// reset forgets the ingest books (a new daemon starts a new stream);
// attempted and failed keep counting across the run.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accepted, r.ranges = 0, nil
}

// checkRanges verifies the accepted batches tile steps 1..accepted with
// no gap and no duplicate.
func (r *recorder) checkRanges() error {
	rs := append([][2]int(nil), r.ranges...)
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	next := 1
	for _, rg := range rs {
		if rg[0] != next || rg[1] < rg[0] {
			return fmt.Errorf("step ranges: batch [%d,%d] where step %d was due", rg[0], rg[1], next)
		}
		next = rg[1] + 1
	}
	if next-1 != r.accepted {
		return fmt.Errorf("step ranges cover %d steps, %d samples accepted", next-1, r.accepted)
	}
	return nil
}

// runServed starts ascsd setupReps times (once when traced), measuring
// set-up on each, and drives the workload's traffic against the last
// one. A failed correctness check comes back as a *gateError with the
// partial outcome; any other error is an infrastructure failure.
func runServed(o runOpts, w workload, in *inputs, seed int64, traced bool) (*served, error) {
	setupReps := w.sizes.setupReps
	if traced {
		setupReps = 1 // set-up time is an end-to-end metric
	}
	s := &served{ops: &recorder{}}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		s.ops.reset()
		var err error
		d, err = startDaemon(o.daemon, w, filepath.Join(o.runDir, fmt.Sprintf("ascsd-%d.log", rep)))
		if err != nil {
			return nil, err
		}
		sec, err := warmUp(d, w, in, s.ops)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setupS = append(s.setupS, sec)
	}

	c := newClient()
	defer c.close()
	var err error
	var next atomic.Int64 // index of the next post-warm-up body
	if s.m0, err = c.scrape(d.base); err != nil {
		return nil, err
	}
	var sampleErr error
	windowDone, sampleDone := make(chan struct{}), make(chan struct{})
	if traced {
		go func() {
			defer close(sampleDone)
			sampleErr = s.sampleQueues(d, o.seconds, windowDone)
		}()
	} else {
		close(sampleDone)
	}
	if w.Load.RatePerS > 0 {
		s.openLoop(d, w, in, &next, o.seconds, seed)
	} else if err := s.closedLoop(d, w, in, &next, o.seconds, c); err != nil {
		return nil, err
	}
	close(windowDone)
	<-sampleDone
	if sampleErr != nil {
		return nil, sampleErr
	}
	if s.m1, err = c.scrape(d.base); err != nil {
		return nil, err
	}
	s.endQueue = s.m1.sum("ascs_shard_queue_depth", `lane="ingest"`)
	st, err := c.stats(d.base)
	if err != nil {
		return nil, err
	}
	if st.Manager.Step != s.ops.accepted {
		return s, &gateError{fmt.Sprintf("final /v1/stats step %d, %d samples accepted", st.Manager.Step, s.ops.accepted)}
	}
	if err := s.ops.checkRanges(); err != nil {
		return s, &gateError{err.Error()}
	}
	top, err := c.topk(d.base, topK)
	if !s.ops.query(err) {
		return nil, err
	}
	s.precision = in.precision(top.Pairs)
	if s.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return s, nil
}

// queueSampleEvery is the interval of the traced run's queue scrapes.
const queueSampleEvery = 200 * time.Millisecond

// sampleQueues scrapes /metrics every queueSampleEvery until the window
// closes, keeping the deepest per-shard ingest queue seen (the window's
// high-water mark; the daemon's own high-water gauge also counts the
// warm-up replay) and the first scrape past mid-window.
func (s *served) sampleQueues(d *daemon, seconds float64, windowDone <-chan struct{}) error {
	c := newClient()
	defer c.close()
	half := time.Now().Add(time.Duration(seconds * float64(time.Second) / 2))
	tick := time.NewTicker(queueSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-windowDone:
			if s.mid == nil {
				return errors.New("the window closed before the mid-window scrape")
			}
			return nil
		case <-tick.C:
		}
		p, err := c.scrape(d.base)
		if err != nil {
			return err
		}
		s.queueHigh = max(s.queueHigh, p.max("ascs_shard_queue_depth", `lane="ingest"`))
		if s.mid == nil && !time.Now().Before(half) {
			s.mid = p
		}
	}
}

// gateError is a failed correctness check.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

// warmUp sends the warm-up prefix on one connection and polls the fresh
// lane until a top-k answers, returning the seconds since exec.
func warmUp(d *daemon, w workload, in *inputs, ops *recorder) (float64, error) {
	c := newClient()
	defer c.close()
	for b := 0; b < in.warmBodies; b++ {
		resp, err := c.ingest(d.base, in.bodies[b])
		if !ops.ingest(resp, err, in.batch) {
			return 0, err
		}
	}
	for {
		_, err := c.topk(d.base, topK)
		if err == nil {
			ops.query(nil)
			return time.Since(d.started).Seconds(), nil
		}
		if !errors.Is(err, errWarming) {
			return 0, err
		}
		if time.Since(d.started) > 2*time.Minute {
			return 0, errors.New("still warming 2 minutes after start")
		}
		time.Sleep(time.Millisecond)
	}
}

// closedLoop runs the window in rounds, one per latency slice, so the
// reported figures sample the whole window and a slow stretch of a
// shared host moves only some rounds. A round runs first its share of the
// write-then-read probes on c, on a daemon whose queues have drained,
// then IngestConns connections, each sending its next batch as soon as
// the previous one is answered, for the round's share of the window.
func (s *served) closedLoop(d *daemon, w workload, in *inputs, next *atomic.Int64, seconds float64, c *client) error {
	start := time.Now()
	for range slices {
		// A fresh top-k rides the FIFO behind the previous round's
		// backlog, so the probes start on empty queues.
		if _, err := c.topk(d.base, topK); !s.ops.query(err) {
			return err
		}
		for range w.Load.Probes / slices {
			s.probe(d, in, next, c)
		}
		s.saturate(d, w, in, next, seconds/slices)
	}
	s.windowS = time.Since(start).Seconds()
	return nil
}

// saturate runs IngestConns closed-loop connections for seconds and
// appends their ingest rates over spans of about a second (see
// perSecond) to s.rates.
func (s *served) saturate(d *daemon, w workload, in *inputs, next *atomic.Int64, seconds float64) {
	var mu sync.Mutex
	var answered []answer
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for range w.Load.IngestConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			var done time.Time
			for time.Now().Before(deadline) {
				body := in.body(int(next.Add(1) - 1))
				t := time.Now()
				resp, err := c.ingest(d.base, body)
				at := time.Now()
				mu.Lock()
				if !done.IsZero() {
					s.lagMs = append(s.lagMs, ms(t.Sub(done)))
				}
				if s.ops.ingest(resp, err, in.batch) {
					s.windowMs = append(s.windowMs, ms(at.Sub(t)))
					s.accepted += resp.Accepted
					answered = append(answered, answer{at, resp.Accepted})
				}
				mu.Unlock()
				done = time.Now()
			}
		}()
	}
	wg.Wait()
	s.rates = append(s.rates, perSecond(answered)...)
}

// openLoop runs the window open loop on two connections. The writer
// sends an ingest batch at each slot of the fixed rate, timing it from
// its scheduled send. The reader sends a fresh top-k as soon as an
// ingest has been answered and it is not busy with a previous query; the
// query is the first sent after that ingest (and after any others
// answered meanwhile), and the fresh lane is FIFO, so it observes them:
// their write-to-visible latency runs from their scheduled sends to its
// completion. Reads thus run beside writes at most at the write rate,
// without saturating the host, and a slow query delays the next query
// but never the next write. Each send is delayed from its slot by a
// jitter drawn from the seed, up to sendJitter of the interval, so the
// schedule does not lock onto a periodic stall of the host and report
// its phase.
func (s *served) openLoop(d *daemon, w workload, in *inputs, next *atomic.Int64, seconds float64, seed int64) {
	answeredDue := make(chan time.Time, int(seconds*w.Load.RatePerS)+1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c := newClient()
		defer c.close()
		var dues []time.Time
		for due := range answeredDue {
			dues = append(dues[:0], due)
		pending:
			for {
				select {
				case due, ok := <-answeredDue:
					if !ok {
						break pending
					}
					dues = append(dues, due)
				default:
					break pending
				}
			}
			t := time.Now()
			_, err := c.topk(d.base, topK)
			if !s.ops.query(err) {
				continue
			}
			done := time.Now()
			s.queryMs = append(s.queryMs, ms(done.Sub(t)))
			for _, due := range dues {
				s.visibleMs = append(s.visibleMs, ms(done.Sub(due)))
			}
		}
	}()

	c := newClient()
	defer c.close()
	var answered []answer
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6a177e4))
	interval := time.Duration(float64(time.Second) / w.Load.RatePerS)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i)*interval + time.Duration(rng.Float64()*sendJitter*float64(interval)))
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		s.lagMs = append(s.lagMs, msSince(due))
		resp, err := c.ingest(d.base, in.body(int(next.Add(1)-1)))
		at := time.Now()
		if s.ops.ingest(resp, err, in.batch) {
			answeredDue <- due
			s.windowMs = append(s.windowMs, ms(at.Sub(due)))
			s.accepted += resp.Accepted
			answered = append(answered, answer{at, resp.Accepted})
		}
	}
	close(answeredDue)
	<-readerDone
	s.windowS = time.Since(start).Seconds()
	s.ingestMs = s.windowMs
	s.rates = perSecond(answered)
}

// sendJitter is the largest delay of an open-loop send from its slot, as
// a share of the interval.
const sendJitter = 0.375

// answer is an accepted ingest: when it was answered and how many
// samples it carried.
type answer struct {
	at time.Time
	n  int
}

// perSecond cuts the answers into consecutive spans of at least a
// second, each from one answer to the first answer a second or more
// later, and returns each span's rate: the samples answered after its
// first answer over its length. A trailing span shorter than a second is
// dropped, unless the answers span less than a second in all (a smoke
// run), which gives one rate over all of them.
func perSecond(as []answer) []float64 {
	var rates []float64
	for i := 0; i < len(as); {
		n := 0
		j := i + 1
		for ; j < len(as); j++ {
			n += as[j].n
			if as[j].at.Sub(as[i].at) >= time.Second {
				break
			}
		}
		if j == len(as) {
			if i == 0 && j > 1 {
				rates = append(rates, float64(n)/as[j-1].at.Sub(as[0].at).Seconds())
			}
			break
		}
		rates = append(rates, float64(n)/as[j].at.Sub(as[i].at).Seconds())
		i = j
	}
	return rates
}

// latencyTrend is the median ingest latency of the window's second half
// over its first half. In the open loop, well above 1 means the fixed
// rate outruns the daemon and the backlog grows.
func (s *served) latencyTrend() float64 {
	n := len(s.windowMs)
	if n < 4 {
		return 0
	}
	return ratio(median(s.windowMs[n/2:]), median(s.windowMs[:n/2]))
}

// probe sends one write-then-read probe on c: an ingest batch, then a
// fresh top-k, which observes the batch (the fresh lane is FIFO behind
// it). Latencies run from the send.
func (s *served) probe(d *daemon, in *inputs, next *atomic.Int64, c *client) {
	t := time.Now()
	resp, err := c.ingest(d.base, in.body(int(next.Add(1)-1)))
	if !s.ops.ingest(resp, err, in.batch) {
		return
	}
	q := time.Now()
	s.ingestMs = append(s.ingestMs, ms(q.Sub(t)))
	_, err = c.topk(d.base, topK)
	if s.ops.query(err) {
		done := time.Now()
		s.queryMs = append(s.queryMs, ms(done.Sub(q)))
		s.visibleMs = append(s.visibleMs, ms(done.Sub(t)))
	}
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
