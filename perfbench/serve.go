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
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/resultcache"
	"shrimp/internal/server"
	"shrimp/internal/stats"
)

// maxSessions bounds the generated session sequence: a run of 25
// seconds uses about a fifth of it, and even a host twice as fast
// measuring the longest possible time does not run out.
const maxSessions = 1200

// setupStarts is how often whatif-serve starts the daemon during
// set-up; setup_s is the median start, and the last daemon serves.
const setupStarts = 15

// daemon is a shrimpd child process listening on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon execs shrimpd with serial simulation and waits until
// /healthz answers.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-nodes", "16", "-sim-workers", "1", "-job-workers", "1")
	cmd.Stderr = io.Discard
	cmd.Stdout = io.Discard
	// The daemon dies with the benchmark, even if the benchmark is
	// killed before it can stop the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shrimpd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		// A fine poll keeps the wait from rounding the start time up.
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, errors.New("shrimpd did not answer /healthz within 30s")
}

// stop drains the daemon with SIGTERM, killing it if it does not exit
// in time, and returns its lifetime CPU time and peak resident set in
// bytes.
func (d *daemon) stop() (time.Duration, int64) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	cpu := d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return cpu, ru.Maxrss * 1024
	}
	return cpu, 0
}

// newClient returns the single client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// sessionResult is what the client measured for one session.
type sessionResult struct {
	twin, submit, firstByte, stream, job time.Duration
	body                                 []byte // the job's NDJSON stream
	twinNs                               []int64
	err                                  error
}

// runSession performs one what-if session: the twin scan, then the
// job's submission and its result stream read to the last byte.
func runSession(c *http.Client, base string, s session, log *spanLog, req string) sessionResult {
	var res sessionResult
	root := log.begin("session", req, 0)
	defer log.end(root)

	sp := log.begin("twin", req, root)
	t0 := time.Now()
	body, err := post(c, base+"/v1/twin", map[string]any{"cells": s.Grid, "quick": true}, http.StatusOK)
	res.twin = time.Since(t0)
	log.end(sp)
	if err != nil {
		res.err = fmt.Errorf("twin: %w", err)
		return res
	}
	var rows []struct {
		TwinNs int64 `json:"twin_ns"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		res.err = fmt.Errorf("twin answer: %w", err)
		return res
	}
	for _, r := range rows {
		res.twinNs = append(res.twinNs, r.TwinNs)
	}

	job := log.begin("job", req, root)
	defer log.end(job)
	sp = log.begin("submit", req, job)
	t1 := time.Now()
	body, err = post(c, base+"/v1/jobs",
		map[string]any{"cells": s.Job, "quick": true, "share_prefix": true}, http.StatusAccepted)
	res.submit = time.Since(t1)
	log.end(sp)
	if err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		res.err = fmt.Errorf("submit answer %q", body)
		return res
	}

	fb := log.begin("first-byte", req, job)
	t2 := time.Now()
	resp, err := c.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		res.err = fmt.Errorf("results: %w", err)
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		res.err = fmt.Errorf("results: status %d", resp.StatusCode)
		return res
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	first, err := br.ReadByte()
	t3 := time.Now()
	log.end(fb)
	if err != nil {
		res.err = fmt.Errorf("results: %w", err)
		return res
	}
	sp = log.begin("stream", req, job)
	buf.WriteByte(first)
	_, err = buf.ReadFrom(br)
	t4 := time.Now()
	log.end(sp)
	if err != nil {
		res.err = fmt.Errorf("results: %w", err)
		return res
	}
	res.firstByte, res.stream, res.job = t3.Sub(t2), t4.Sub(t3), t4.Sub(t1)
	res.body = buf.Bytes()
	return res
}

// post sends a JSON body and returns the response body, or an error
// unless the status is want.
func post(c *http.Client, url string, v any, want int) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// checker computes what each session must answer by calling the
// harness and the twin directly, without the daemon.
type checker struct {
	wl     harness.Workloads
	twin   *harness.Predictor
	stream map[int][]byte // cold session index -> expected job stream
}

func newChecker() *checker {
	wl := harness.QuickWorkloads()
	return &checker{wl: wl, twin: harness.NewPredictor(&wl), stream: map[int][]byte{}}
}

// expectedStream is the NDJSON a cell job must stream: one row per
// cell in index order, as docs/shrimpd.md specifies.
func expectedStream(cells []harness.CellSpec, results []harness.Result) ([]byte, error) {
	var buf bytes.Buffer
	for i := range cells {
		line, err := json.Marshal(struct {
			Index  int              `json:"index"`
			Cell   harness.CellSpec `json:"cell"`
			Result harness.Result   `json:"result"`
		}{i, cells[i], results[i]})
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// prepare simulates every cold job among sessions with a direct
// harness.RunCellSpecs: cold, without prefix sharing or a cache, on
// every core (measuring is over by the time it runs).
func (k *checker) prepare(sessions []session) error {
	for i, s := range sessions {
		if s.Repeat >= 0 || k.stream[i] != nil {
			continue
		}
		res, err := harness.RunCellSpecs(context.Background(), s.Job, &k.wl, harness.CellRunOpts{})
		if err != nil {
			return err
		}
		if k.stream[i], err = expectedStream(s.Job, res); err != nil {
			return err
		}
	}
	return nil
}

// verify checks one session's answers, returning why they are wrong or
// "". prepare must have covered the session.
func (k *checker) verify(i int, s session, r sessionResult) string {
	if r.err != nil {
		return r.err.Error()
	}
	if len(r.twinNs) != len(s.Grid) {
		return fmt.Sprintf("twin answered %d cells of %d", len(r.twinNs), len(s.Grid))
	}
	for j, c := range s.Grid {
		want, err := k.twin.PredictCell(c)
		if err != nil || int64(want) != r.twinNs[j] {
			return fmt.Sprintf("twin cell %d: %d, direct %d (%v)", j, r.twinNs[j], int64(want), err)
		}
	}
	cold := i
	if s.Repeat >= 0 {
		cold = s.Repeat
	}
	if !bytes.Equal(r.body, k.stream[cold]) {
		return "job stream differs from a direct harness.RunCellSpecs"
	}
	return ""
}

// streamCounts sums the simulated counters in the job streams.
func streamCounts(results []sessionResult) (map[string]int64, error) {
	var sum stats.Counters
	for _, r := range results {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		for dec.More() {
			var row struct {
				Result harness.Result `json:"result"`
			}
			if err := dec.Decode(&row); err != nil {
				return nil, err
			}
			sum.Add(&row.Result.Counters)
		}
	}
	return counterMap(&sum), nil
}

// runServe drives a shrimpd child with the session sequence, one
// session after another, until the run's time is up and the p90 has
// enough jobs; then it stops the daemon and checks every answer.
func runServe(o options) (*outcome, error) {
	out := newOutcome()
	if o.trace {
		return out, traceServe(o, out)
	}
	client := newClient()
	var sessions []session
	var d *daemon
	var starts []float64
	for i := 0; i < setupStarts; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		sessions = genSessions(o.seed, maxSessions)
		var err error
		if d, err = startDaemon(o.shrimpd, client); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	out.metrics["setup_s"] = median(starts)

	// Sessions run in whole blocks, each with the same app mix and hit
	// share; ops_per_s is the median block's rate, so a host stall
	// shorter than half the run does not move it.
	var results []sessionResult
	var jobTimes []time.Duration
	var blockRates []float64
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		d.stop()
		return nil, err
	}
	t0 := time.Now()
	for time.Since(t0) < time.Duration(o.seconds*float64(time.Second)) || !tailOK(len(results), 90) {
		if time.Since(t0) > maxMeasure || len(results)+blockSize > len(sessions) {
			d.stop()
			return nil, fmt.Errorf("whatif-serve: %d jobs after %v, too few for a p90", len(results), time.Since(t0))
		}
		tb := time.Now()
		for i := 0; i < blockSize; i++ {
			r := runSession(client, d.base, sessions[len(results)], nil, "")
			results = append(results, r)
			jobTimes = append(jobTimes, r.job)
		}
		blockRates = append(blockRates, blockSize/time.Since(tb).Seconds())
	}
	client.CloseIdleConnections()
	// The daemon's CPU after measuring is its idle drain, so its
	// lifetime CPU at exit, in microseconds, less the clock-tick
	// reading taken before the first session is the sessions' CPU.
	cpu, rss := d.stop()

	out.metrics["ops_per_s"] = median(blockRates)
	out.metrics["cpu_ms_per_op"] = ms(cpu-cpu0) / float64(len(results))
	latencyMetrics(out, jobTimes)
	out.metrics["peak_rss_mb"] = mb(rss)
	return out, checkSessions(out, newChecker(), sessions[:len(results)], results)
}

// checkSessions verifies every session's answers against direct calls,
// counting each wrong job as a failed operation.
func checkSessions(out *outcome, k *checker, sessions []session, results []sessionResult) error {
	if err := k.prepare(sessions); err != nil {
		return err
	}
	for i, s := range sessions {
		out.attempted++
		if why := k.verify(i, s, results[i]); why != "" {
			out.fail(1, "whatif-serve session %d: %s", i, why)
		}
	}
	return nil
}

// inProcess is a shrimpd server inside the benchmark process, built
// from the same internal/server package with the daemon's settings, so
// the CPU profiler sees the server's code.
type inProcess struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

func startInProcess() (*inProcess, error) {
	cache, err := resultcache.New(4096, "")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inProcess{
		srv:  server.New(server.Config{Nodes: 16, SimWorkers: 1, JobWorkers: 1, Cache: cache}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *inProcess) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.http.Shutdown(ctx)
	<-s.done
}

// tracedSessions is how many sessions each pass of a traced run
// replays: six blocks, 24 cold jobs and 6 hits.
const tracedSessions = 6 * blockSize

// servePass runs sessions against a fresh in-process server and
// returns the results, the pass's wall time and its /metrics scrape.
func servePass(sessions []session, log *spanLog) ([]sessionResult, time.Duration, map[string]float64, error) {
	s, err := startInProcess()
	if err != nil {
		return nil, 0, nil, err
	}
	defer s.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	results := make([]sessionResult, len(sessions))
	t0 := time.Now()
	for i, ss := range sessions {
		results[i] = runSession(client, s.base, ss, log, fmt.Sprintf("session/%d", i))
	}
	wall := time.Since(t0)
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	prom, err := parseProm(resp.Body)
	return results, wall, prom, err
}

// parseProm reads Prometheus text exposition into sample values keyed
// by the metric name with its labels.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// traceServe is the traced whatif-serve run: the first tracedSessions
// sessions against a fresh in-process server untraced, then again
// against another fresh one with spans around every HTTP phase under
// the CPU profiler. Per-layer times come from the traced pass's spans
// and the daemon's own /metrics.
func traceServe(o options, out *outcome) error {
	sessions := genSessions(o.seed, tracedSessions)
	rt0 := readRuntime()
	ref, refWall, _, err := servePass(sessions, nil)
	if err != nil {
		return err
	}
	runtimeMetrics(out, rt0, readRuntime(), len(sessions)*jobCells)
	k := newChecker()
	if err := checkSessions(out, k, sessions, ref); err != nil {
		return err
	}

	log := newSpanLog()
	var traced []sessionResult
	var tracedWall time.Duration
	var prom map[string]float64
	path, err := profilePath(o)
	if err != nil {
		return err
	}
	shares, err := cpuProfile(path, func() error {
		var err error
		traced, tracedWall, prom, err = servePass(sessions, log)
		return err
	})
	if err != nil {
		return err
	}
	if err := checkSessions(out, k, sessions, traced); err != nil {
		return err
	}

	var cold, hit []sessionResult
	for i, s := range sessions {
		if s.Repeat < 0 {
			cold = append(cold, traced[i])
		} else {
			hit = append(hit, traced[i])
		}
	}
	pick := func(rs []sessionResult, f func(sessionResult) time.Duration) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, ms(f(r)))
		}
		return median(v)
	}
	out.metrics["server.jobs"] = float64(len(traced))
	out.metrics["server.submit_ms"] = median(log.durations("submit"))
	out.metrics["twin.answer_ms"] = median(log.durations("twin"))
	out.metrics["server.first_byte_ms.cold"] = pick(cold, func(r sessionResult) time.Duration { return r.firstByte })
	out.metrics["server.first_byte_ms.hit"] = pick(hit, func(r sessionResult) time.Duration { return r.firstByte })
	out.metrics["server.stream_ms.cold"] = pick(cold, func(r sessionResult) time.Duration { return r.stream })
	out.metrics["server.stream_ms.hit"] = pick(hit, func(r sessionResult) time.Duration { return r.stream })
	out.metrics["server.cold_job_ms"] = pick(cold, func(r sessionResult) time.Duration { return r.job })
	out.metrics["server.hit_job_ms"] = pick(hit, func(r sessionResult) time.Duration { return r.job })
	out.metrics["server.queue_wait_ms"] = prom[`shrimpd_job_queue_wait_ns{quantile="0.5"}`] / 1e6
	out.metrics["server.job_ms"] = prom[`shrimpd_job_duration_ns{quantile="0.5"}`] / 1e6
	if h, m := prom["shrimpd_cache_hits_total"], prom["shrimpd_cache_misses_total"]; h+m > 0 {
		out.metrics["resultcache.hit_ratio"] = h / (h + m)
	}
	counts, err := streamCounts(traced)
	if err != nil {
		return err
	}
	refCounts, err := streamCounts(ref)
	if err != nil {
		return err
	}
	if bad := diffCounts(counts, refCounts); bad != "" {
		out.fail(1, "traced whatif-serve simulated counts differ from the untraced pass: %s", bad)
	}
	for name, v := range counts {
		out.metrics[name] = float64(v)
	}
	for l, s := range shares {
		out.metrics["cpu_share."+l] = s
	}
	out.metrics["trace.overhead_frac"] = tracedWall.Seconds()/refWall.Seconds() - 1
	out.spans = log
	return nil
}
