// Package server implements shrimpd's HTTP API: a job queue over the
// simulation harness with streaming NDJSON results and a
// content-addressed result cache.
//
// The daemon sits strictly on the host side of the simulation
// boundary — it may fan out goroutines, read wall clocks and serve
// sockets — while every simulation it runs goes through the same
// harness worker pool as the batch CLIs, so a job's bytes match what
// `shrimpbench -json` or `shrimpsim` would print for the same cells.
//
// Endpoints:
//
//	POST   /v1/twin              instant analytical-twin answer (no queue)
//	POST   /v1/jobs              submit a job (cell grid or named experiment)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/results stream results as NDJSON
//	GET    /v1/experiments       the experiment registry
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text metrics
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"shrimp/internal/harness"
	"shrimp/internal/resultcache"
)

// Config sizes the daemon.
type Config struct {
	// Nodes is the default machine size for experiment jobs (0 = 16,
	// the paper's system).
	Nodes int
	// SimWorkers is the per-job simulation worker-pool width
	// (0 = GOMAXPROCS).
	SimWorkers int
	// JobWorkers is the number of jobs run concurrently (0 = 1).
	JobWorkers int
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with 429 (0 = 16).
	QueueDepth int
	// Cache, when non-nil, serves previously simulated cells without
	// re-running them and is shared by all jobs.
	Cache *resultcache.Cache
}

// Server is the shrimpd HTTP API. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelFunc
	queue      chan *job
	wg         sync.WaitGroup
	draining   atomic.Bool

	jobsMu sync.Mutex
	jobs   map[string]*job
	nextID atomic.Int64

	met metrics
}

// New starts a server's job runners and returns it ready to serve.
func New(cfg Config) *Server {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.routes()
	s.wg.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.runner()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new submissions are refused with 503,
// running and queued jobs are canceled, and the call returns once all
// job runners have exited (or ctx expires). In-flight HTTP responses
// are the caller's business — pair this with http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancelBase()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/twin", s.handleTwin)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var list []expInfo
	for _, e := range harness.Experiments() {
		list = append(list, expInfo{Name: e.Name, Desc: e.Desc})
	}
	writeJSON(w, http.StatusOK, list)
}

// Request bounds. A body is at most maxBodyBytes, and a machine at most
// maxNodes nodes: 64x the paper's 16-node system, and past the largest
// size any front end defaults to. Both keep one request from taking
// the daemon's memory, and with it every job in flight.
const (
	maxBodyBytes = 1 << 20
	maxNodes     = 1024
)

// decodeRequest decodes a JSON request body into v, refusing unknown
// fields and bodies over maxBodyBytes. On failure it writes the error
// response (413 for an oversized body, 400 otherwise) and returns
// false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		}
		return false
	}
	return true
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return fmt.Sprintf("unknown experiment %q (GET /v1/experiments lists them)", string(e))
}

// validate rejects malformed requests before they reach the queue, so
// a queued job can only fail on cancellation.
func validate(req *JobRequest) error {
	switch {
	case req.Experiment != "" && len(req.Cells) > 0:
		return fmt.Errorf("set exactly one of cells and experiment, not both")
	case req.Experiment == "" && len(req.Cells) == 0:
		return fmt.Errorf("set one of cells and experiment")
	case req.Nodes < 0:
		return fmt.Errorf("nodes must be positive")
	case req.Nodes > maxNodes:
		return fmt.Errorf("nodes %d exceeds the limit of %d", req.Nodes, maxNodes)
	}
	if req.Experiment != "" {
		if _, ok := harness.FindExperiment(req.Experiment); !ok {
			return errUnknownExperiment(req.Experiment)
		}
		return nil
	}
	for i := range req.Cells {
		if _, err := req.Cells[i].Compile(); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if n := req.Cells[i].Nodes; n > maxNodes {
			return fmt.Errorf("cell %d: nodes %d exceeds the limit of %d", i, n, maxNodes)
		}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var req JobRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := validate(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := newJob(id, req, ctx, cancel)

	select {
	case s.queue <- j:
	default:
		cancel()
		s.met.jobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		return
	}
	s.jobsMu.Lock()
	s.jobs[id] = j
	s.jobsMu.Unlock()
	s.met.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	jobs := make(map[string]*job, len(s.jobs))
	for id, j := range s.jobs {
		jobs[id] = j
	}
	s.jobsMu.Unlock()
	sort.Strings(ids)
	statuses := make([]jobStatus, 0, len(ids))
	for _, id := range ids {
		statuses = append(statuses, jobs[id].status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

// lookup fetches a job or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.jobsMu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.jobsMu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.markCanceled()
	writeJSON(w, http.StatusOK, j.status())
}

// handleResults streams a job's result rows as NDJSON in cell-index
// order, flushing line by line as they complete, and returns when the
// job reaches a terminal state (or the client goes away). Connecting
// to a finished job replays its full output.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Id", j.id)
	flusher, _ := w.(http.Flusher)

	// A waiting reader blocks on the job's cond; wake it if the client
	// disconnects so the handler can exit.
	stop := context.AfterFunc(r.Context(), func() { j.cond.Broadcast() })
	defer stop()

	j.mu.Lock()
	for i := 0; i < len(j.rows); {
		for !j.ready[i] && !j.state.terminal() && r.Context().Err() == nil {
			j.cond.Wait()
		}
		if !j.ready[i] { // terminal (or disconnected) with no more rows
			break
		}
		line := j.rows[i]
		i++
		j.mu.Unlock()
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		j.mu.Lock()
	}
	j.mu.Unlock()
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
