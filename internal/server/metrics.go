package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/memory"
	"shrimp/internal/trace"
)

// metrics holds the daemon's own counters plus service-time
// histograms. The histograms reuse internal/trace's HDR buckets — the
// same implementation that measures simulated latencies measures the
// daemon's host-side job latencies, and trace.WritePromSummary renders
// both for the scrape.
type metrics struct {
	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64
	jobsStarted   atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	cellsFinished atomic.Int64
	twinAnswered  atomic.Int64

	// Twin drift: every simulated cell is re-predicted by the twin and
	// the absolute relative error recorded, so the scrape carries a
	// live twin-vs-DES calibration signal without extra simulation.
	driftMu       sync.Mutex
	twinDrift     trace.Hist // absolute twin-vs-sim error, basis points
	twinDriftLast float64    // most recent cell's relative error

	histMu    sync.Mutex
	queueWait trace.Hist // ns from submit to start
	jobDur    trace.Hist // ns from start to done (successful jobs)

	// Open-loop load metrics, fed by completed load-experiment jobs:
	// cumulative per-class request/byte counters and sojourn summaries,
	// plus the most recent sweep's goodput-vs-offered-load curve.
	loadMu      sync.Mutex
	loadReqs    map[string]int64
	loadBytes   map[string]int64
	loadSojourn map[string]*trace.Hist
	loadRows    []harness.LoadRow
}

func (s *Server) observeQueueWait(d time.Duration) {
	s.met.histMu.Lock()
	s.met.queueWait.Record(d.Nanoseconds())
	s.met.histMu.Unlock()
}

func (s *Server) observeJobDuration(d time.Duration) {
	s.met.histMu.Lock()
	s.met.jobDur.Record(d.Nanoseconds())
	s.met.histMu.Unlock()
}

// recordLoadRows folds one completed load sweep into the daemon's load
// metrics. rows is the experiment's opaque row value; anything that is
// not a load row slice is ignored, so the job runner can call this on
// every experiment result unconditionally.
func (s *Server) recordLoadRows(rows any) {
	loadRows, ok := rows.([]harness.LoadRow)
	if !ok || len(loadRows) == 0 {
		return
	}
	classes, reqs, bytes, soj := harness.LoadClassTotals(loadRows)
	m := &s.met
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if m.loadReqs == nil {
		m.loadReqs = map[string]int64{}
		m.loadBytes = map[string]int64{}
		m.loadSojourn = map[string]*trace.Hist{}
	}
	for _, class := range classes {
		m.loadReqs[class] += reqs[class]
		m.loadBytes[class] += bytes[class]
		h, ok := m.loadSojourn[class]
		if !ok {
			h = &trace.Hist{}
			m.loadSojourn[class] = h
		}
		h.Merge(soj[class])
	}
	m.loadRows = loadRows
}

// handleMetrics renders Prometheus text exposition format. Counter
// lines come from the daemon's atomics and the result cache, the page
// gauges from the simulated memory's page pool; summary
// lines go through the trace package's export hook.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	m := &s.met
	counter("shrimpd_jobs_submitted_total", "jobs accepted into the queue", m.jobsSubmitted.Load())
	counter("shrimpd_jobs_rejected_total", "jobs refused with 429 (queue full)", m.jobsRejected.Load())
	counter("shrimpd_jobs_started_total", "jobs begun by a runner", m.jobsStarted.Load())
	counter("shrimpd_jobs_done_total", "jobs finished successfully", m.jobsDone.Load())
	counter("shrimpd_jobs_failed_total", "jobs finished in error", m.jobsFailed.Load())
	counter("shrimpd_jobs_canceled_total", "jobs canceled before finishing", m.jobsCanceled.Load())
	counter("shrimpd_cells_finished_total", "simulation cells completed (cache hits included)", m.cellsFinished.Load())
	gauge("shrimpd_queue_depth", "jobs waiting to run", int64(len(s.queue)))
	resident, free := memory.PoolStats()
	gauge("shrimpd_sim_pages_resident", "simulated 4 KB pages holding written bytes (0 once every cell has finished)", int64(resident))
	gauge("shrimpd_sim_pages_free", "zeroed 4 KB page buffers pooled for the next cell to write", int64(free))

	if c := s.cfg.Cache; c != nil {
		st := c.Snapshot()
		counter("shrimpd_cache_hits_total", "cells served from the in-memory result cache", st.Hits)
		counter("shrimpd_cache_disk_hits_total", "cells served from the spill directory", st.DiskHits)
		counter("shrimpd_cache_misses_total", "cells that had to simulate", st.Misses)
		counter("shrimpd_cache_puts_total", "results stored in the cache", st.Puts)
		counter("shrimpd_cache_spills_total", "results evicted to disk", st.Spills)
		gauge("shrimpd_cache_entries", "results held in memory", st.Entries)
	}

	counter("shrimpd_twin_answers_total", "instant analytical-twin answers served", m.twinAnswered.Load())
	m.driftMu.Lock()
	drift, last := m.twinDrift, m.twinDriftLast
	m.driftMu.Unlock()
	fmt.Fprintf(w, "# HELP shrimpd_twin_drift_last_pct twin-vs-DES relative error of the most recent simulated cell\n# TYPE shrimpd_twin_drift_last_pct gauge\n")
	fmt.Fprintf(w, "shrimpd_twin_drift_last_pct %g\n", last*100)
	fmt.Fprintf(w, "# HELP shrimpd_twin_drift_bp absolute twin-vs-DES error of simulated cells, basis points\n# TYPE shrimpd_twin_drift_bp summary\n")
	trace.WritePromSummary(w, "shrimpd_twin_drift_bp", "", &drift)

	m.histMu.Lock()
	qw, jd := m.queueWait, m.jobDur
	m.histMu.Unlock()
	fmt.Fprintf(w, "# HELP shrimpd_job_queue_wait_ns time jobs spent queued\n# TYPE shrimpd_job_queue_wait_ns summary\n")
	trace.WritePromSummary(w, "shrimpd_job_queue_wait_ns", "", &qw)
	fmt.Fprintf(w, "# HELP shrimpd_job_duration_ns wall time of successful jobs\n# TYPE shrimpd_job_duration_ns summary\n")
	trace.WritePromSummary(w, "shrimpd_job_duration_ns", "", &jd)

	s.writeLoadMetrics(w)
}

// writeLoadMetrics renders the open-loop load section of the scrape:
// cumulative per-class traffic counters and sojourn summaries, plus the
// last sweep's offered/goodput curve as labeled gauges. Class iteration
// uses LoadClassTotals' sorted keys, so the exposition is deterministic.
func (s *Server) writeLoadMetrics(w http.ResponseWriter) {
	m := &s.met
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if m.loadReqs == nil {
		return
	}
	classes := make([]string, 0, len(m.loadReqs))
	for class := range m.loadReqs {
		classes = append(classes, class)
	}
	sort.Strings(classes)

	fmt.Fprintf(w, "# HELP shrimpd_load_requests_total open-loop requests completed, by class\n# TYPE shrimpd_load_requests_total counter\n")
	for _, class := range classes {
		fmt.Fprintf(w, "shrimpd_load_requests_total{class=%q} %d\n", class, m.loadReqs[class])
	}
	fmt.Fprintf(w, "# HELP shrimpd_load_bytes_total open-loop wire bytes moved, by class\n# TYPE shrimpd_load_bytes_total counter\n")
	for _, class := range classes {
		fmt.Fprintf(w, "shrimpd_load_bytes_total{class=%q} %d\n", class, m.loadBytes[class])
	}
	fmt.Fprintf(w, "# HELP shrimpd_load_sojourn_ns simulated request sojourn time, by class\n# TYPE shrimpd_load_sojourn_ns summary\n")
	for _, class := range classes {
		trace.WritePromSummary(w, "shrimpd_load_sojourn_ns", fmt.Sprintf("class=%q", class), m.loadSojourn[class])
	}

	fmt.Fprintf(w, "# HELP shrimpd_load_offered_mbps last sweep's offered load per row\n# TYPE shrimpd_load_offered_mbps gauge\n")
	for _, r := range m.loadRows {
		fmt.Fprintf(w, "shrimpd_load_offered_mbps{config=%q,class=%q,offered=\"%g\"} %g\n",
			r.Config, r.Class, r.Offered, r.OfferedMBps)
	}
	fmt.Fprintf(w, "# HELP shrimpd_load_goodput_mbps last sweep's delivered goodput per row\n# TYPE shrimpd_load_goodput_mbps gauge\n")
	for _, r := range m.loadRows {
		fmt.Fprintf(w, "shrimpd_load_goodput_mbps{config=%q,class=%q,offered=\"%g\"} %g\n",
			r.Config, r.Class, r.Offered, r.GoodputMBps)
	}
}
