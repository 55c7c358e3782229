package server

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"shrimp/internal/harness"
)

// State is a job's lifecycle stage. Transitions are strictly forward:
// queued -> running -> done|failed, and queued|running -> canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the POST /v1/jobs body. Exactly one of Cells and
// Experiment must be set: either an explicit grid of simulation cells
// (the same serializable specs the harness compiles), or the name of a
// whole registered experiment, whose results are emitted byte-identical
// to `shrimpbench -json -exp <name>`.
type JobRequest struct {
	Cells      []harness.CellSpec `json:"cells,omitempty"`
	Experiment string             `json:"experiment,omitempty"`
	// Nodes sets the machine size for experiment jobs (0 = the server
	// default). Cell jobs carry the size inside each cell.
	Nodes int `json:"nodes,omitempty"`
	// Quick selects the tiny smoke-test workloads.
	Quick bool `json:"quick,omitempty"`
	// SharePrefix is kept so older clients' requests still decode.
	//
	// Deprecated: accepted and ignored. The harness shares warmup
	// prefixes on its own whenever that saves work.
	SharePrefix bool `json:"share_prefix,omitempty"`
}

// cellRow is one streamed result line of a cell job.
type cellRow struct {
	Index  int              `json:"index"`
	Cell   harness.CellSpec `json:"cell"`
	Result harness.Result   `json:"result"`
}

// jobStatus is the GET /v1/jobs/{id} body (and one element of the
// GET /v1/jobs listing).
type jobStatus struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Experiment string `json:"experiment,omitempty"`
	CellsTotal int    `json:"cells_total"`
	CellsDone  int    `json:"cells_done"`
	Error      string `json:"error,omitempty"`
}

// job is one submitted unit of work. Result lines land in rows — by
// cell index for cell jobs, as a single block for experiment jobs —
// and readers stream the longest ready prefix in index order, waiting
// on cond for more. That makes the streamed bytes independent of
// worker completion order, mirroring the determinism contract of the
// batch CLIs.
type job struct {
	id     string
	req    JobRequest
	ctx    context.Context // canceled by DELETE or server shutdown
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	state     State
	errMsg    string
	rows      [][]byte
	ready     []bool
	cellsDone int

	submitted time.Time
	started   time.Time
}

func newJob(id string, req JobRequest, ctx context.Context, cancel context.CancelFunc) *job {
	n := len(req.Cells)
	if req.Experiment != "" {
		n = 1 // one block holding the whole NDJSON emission
	}
	j := &job{
		id:        id,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		rows:      make([][]byte, n),
		ready:     make([]bool, n),
		submitted: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// status snapshots the job for the API.
func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := len(j.req.Cells)
	if j.req.Experiment != "" {
		total = 0
	}
	return jobStatus{
		ID:         j.id,
		State:      j.state,
		Experiment: j.req.Experiment,
		CellsTotal: total,
		CellsDone:  j.cellsDone,
		Error:      j.errMsg,
	}
}

// setRow publishes one result line and wakes streaming readers.
func (j *job) setRow(i int, line []byte) {
	j.mu.Lock()
	j.rows[i] = line
	j.ready[i] = true
	j.cellsDone++
	j.mu.Unlock()
	j.cond.Broadcast()
}

// start moves a queued job to running; it reports false when the job
// was canceled while waiting in the queue.
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state and releases all readers.
func (j *job) finish(s State, errMsg string) {
	j.mu.Lock()
	if !j.state.terminal() {
		j.state = s
		j.errMsg = errMsg
	}
	j.mu.Unlock()
	j.cond.Broadcast()
}

// markCanceled cancels the job's context and, if it was still queued,
// moves it straight to canceled (the runner will skip it).
func (j *job) markCanceled() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
	}
	j.mu.Unlock()
	j.cond.Broadcast()
	j.cancel()
}

// runner is one job-executing goroutine. It exits when the server's
// base context is canceled, first failing any jobs still queued so no
// client is left waiting on a stream that will never finish.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			for {
				select {
				case j := <-s.queue:
					j.finish(StateCanceled, "server shutting down")
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job to a terminal state.
func (s *Server) runJob(j *job) {
	if !j.start() {
		j.finish(StateCanceled, "") // canceled while queued
		return
	}
	s.met.jobsStarted.Add(1)
	s.observeQueueWait(j.started.Sub(j.submitted))

	ctx := j.ctx
	var err error
	if j.req.Experiment != "" {
		err = s.runExperimentJob(ctx, j)
	} else {
		err = s.runCellJob(ctx, j)
	}

	elapsed := time.Since(j.started)
	switch {
	case ctx.Err() != nil && err == nil:
		j.finish(StateCanceled, "canceled")
		s.met.jobsCanceled.Add(1)
	case err != nil:
		j.finish(StateFailed, err.Error())
		s.met.jobsFailed.Add(1)
	default:
		j.finish(StateDone, "")
		s.met.jobsDone.Add(1)
		s.observeJobDuration(elapsed)
	}
}

// runCellJob executes an explicit cell grid, streaming each result as
// it completes. Results are encoded once, under no lock, and published
// by index; the cache (when configured) serves repeats without
// re-simulating.
func (s *Server) runCellJob(ctx context.Context, j *job) error {
	wl := s.workloads(j.req.Quick)
	opts := harness.CellRunOpts{
		Workers: s.cfg.SimWorkers,
		OnDone: func(i int, r harness.Result) {
			s.met.cellsFinished.Add(1)
			s.recordTwinDrift(&wl, j.req.Cells[i], r)
			line, err := json.Marshal(cellRow{Index: i, Cell: j.req.Cells[i], Result: r})
			if err != nil {
				return // unreachable: Result is plain integers
			}
			j.setRow(i, append(line, '\n'))
		},
	}
	if s.cfg.Cache != nil {
		opts.Cache = s.cfg.Cache
	}
	_, err := harness.RunCellSpecs(ctx, j.req.Cells, &wl, opts)
	return err
}

// runExperimentJob runs a whole registered experiment and stores its
// NDJSON emission as one block, byte-identical to
// `shrimpbench -json -exp <name>` at the same size and workloads.
func (s *Server) runExperimentJob(ctx context.Context, j *job) error {
	e, ok := harness.FindExperiment(j.req.Experiment)
	if !ok {
		return errUnknownExperiment(j.req.Experiment) // validated at submit; defensive
	}
	cfg := harness.DefaultExperimentConfig()
	cfg.Nodes = s.cfg.Nodes
	if j.req.Nodes > 0 {
		cfg.Nodes = j.req.Nodes
	}
	cfg.Workers = s.cfg.SimWorkers
	cfg.Workloads = s.workloads(j.req.Quick)
	if s.cfg.Cache != nil {
		cfg.Cache = s.cfg.Cache
	}
	cfg.Ctx = ctx

	rows := e.Run(cfg)
	if ctx.Err() != nil {
		return nil // canceled: partial rows are meaningless, emit nothing
	}
	s.recordLoadRows(rows)
	var buf bytes.Buffer
	if err := harness.EmitJSON(&buf, e.Name, rows); err != nil {
		return err
	}
	j.setRow(0, buf.Bytes())
	return nil
}

// workloads picks the problem sizes for a job.
func (s *Server) workloads(quick bool) harness.Workloads {
	if quick {
		return harness.QuickWorkloads()
	}
	return harness.DefaultWorkloads()
}
