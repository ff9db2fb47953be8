package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is one ascsd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	exited  chan struct{}
	waitErr error
}

// freeAddr returns a loopback address with a currently free port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon execs bin with the workload's flags and waits until it
// answers HTTP. started is the exec time, the origin of set-up time.
func startDaemon(bin string, w workload, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, w.daemonArgs(addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ascsd: %w", err)
	}
	go func() { d.waitErr = cmd.Wait(); close(d.exited) }()
	c := newClient()
	defer c.close()
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ascsd exited during start-up (%v); see %s", d.waitErr, logPath)
		default:
		}
		if status, _, err := c.get(d.base + "/metrics"); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ascsd did not answer within 30s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the daemon down gracefully (SIGTERM), killing it if it has
// not exited within 20s, and waits for the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) get(url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// maxAttempts bounds retries of a request refused with 429.
const maxAttempts = 4

// ingest posts one batch, retrying 429s after a short back-off.
func (c *client) ingest(base string, body []byte) (server.IngestResponse, error) {
	var r server.IngestResponse
	for attempt := 1; ; attempt++ {
		status, raw, err := c.post(base+"/v1/ingest", body)
		if err != nil {
			return r, err
		}
		if status == http.StatusTooManyRequests && attempt < maxAttempts {
			time.Sleep(time.Duration(attempt) * 5 * time.Millisecond)
			continue
		}
		if status != http.StatusOK {
			return r, fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(raw))
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return r, fmt.Errorf("ingest response: %w", err)
		}
		return r, nil
	}
}

// topk runs one fresh-lane magnitude top-k query. A 503 (still warming)
// is returned as errWarming so set-up can poll.
func (c *client) topk(base string, k int) (server.TopKResponse, error) {
	var r server.TopKResponse
	status, raw, err := c.get(fmt.Sprintf("%s/v1/topk?k=%d&magnitude=1&consistency=fresh", base, k))
	if err != nil {
		return r, err
	}
	if status == http.StatusServiceUnavailable {
		return r, errWarming
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("topk: HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("topk response: %w", err)
	}
	if len(r.Pairs) == 0 {
		return r, errors.New("topk: empty answer")
	}
	return r, nil
}

var errWarming = errors.New("daemon still warming up")

// stats fetches /v1/stats on the fresh lane.
func (c *client) stats(base string) (server.StatsResponse, error) {
	var r server.StatsResponse
	status, raw, err := c.get(base + "/v1/stats?consistency=fresh")
	if err != nil {
		return r, err
	}
	if status != http.StatusOK || len(raw) == 0 {
		return r, fmt.Errorf("stats: HTTP %d, %d bytes", status, len(raw))
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("stats response: %w", err)
	}
	return r, nil
}

// prom is one scrape of /metrics: series (name plus label set, as
// exposed) to value.
type prom map[string]float64

// scrape fetches and parses /metrics; an empty page or a line that does
// not parse is an error.
func (c *client) scrape(base string) (prom, error) {
	status, raw, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", status)
	}
	return parseProm(raw)
}

func parseProm(raw []byte) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		p[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p) == 0 {
		return nil, errors.New("metrics: empty page")
	}
	return p, nil
}

// sum adds every series of metric name whose labels contain all of
// the given label fragments (e.g. `route="ingest"`).
func (p prom) sum(name string, labels ...string) float64 {
	var s float64
	p.each(name, labels, func(v float64) { s += v })
	return s
}

// max is the largest value among the series sum would add.
func (p prom) max(name string, labels ...string) float64 {
	var m float64
	p.each(name, labels, func(v float64) { m = max(m, v) })
	return m
}

// each calls fn with the value of every series of metric name whose
// labels contain all of the given label fragments.
func (p prom) each(name string, labels []string, fn func(float64)) {
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			fn(v)
		}
	}
}
