package server

import (
	"net/http"

	"shrimp/internal/harness"
)

// TwinRequest is the POST /v1/twin body: the same shape as a job
// request, answered by the analytical twin instead of the simulator.
// Twin answers are closed-form arithmetic — microseconds of host time —
// so the endpoint responds synchronously and never touches the job
// queue, making it the daemon's instant-answer tier: clients scan the
// design space here and submit only the cells worth simulating.
type TwinRequest struct {
	Cells      []harness.CellSpec `json:"cells,omitempty"`
	Experiment string             `json:"experiment,omitempty"`
	Nodes      int                `json:"nodes,omitempty"`
	Quick      bool               `json:"quick,omitempty"`
}

// twinCellRow is one element of a cell-grid twin answer.
type twinCellRow struct {
	Index  int              `json:"index"`
	Cell   harness.CellSpec `json:"cell"`
	TwinNs int64            `json:"twin_ns"`
}

// handleTwin answers a cell grid or a whole registry experiment from
// the closed-form model. The response is a JSON array: twinCellRow per
// cell for grids, or the experiment's twin rows (harness.TwinRows) for
// named experiments — the same values `shrimpbench -twin -json` emits.
func (s *Server) handleTwin(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var req TwinRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	jreq := JobRequest{Cells: req.Cells, Experiment: req.Experiment, Nodes: req.Nodes}
	if err := validate(&jreq); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	wl := s.workloads(req.Quick)
	tp := harness.NewPredictor(&wl)
	var out any
	if req.Experiment != "" {
		e, _ := harness.FindExperiment(req.Experiment)
		cfg := harness.DefaultExperimentConfig()
		cfg.Nodes = s.cfg.Nodes
		if req.Nodes > 0 {
			cfg.Nodes = req.Nodes
		}
		cfg.Workloads = wl
		rows, err := harness.TwinRows(cfg, e)
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		out = rows
	} else {
		rows := make([]twinCellRow, len(req.Cells))
		for i, c := range req.Cells {
			t, err := tp.PredictCell(c)
			if err != nil {
				http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
				return
			}
			rows[i] = twinCellRow{Index: i, Cell: c, TwinNs: int64(t)}
		}
		out = rows
	}
	s.met.twinAnswered.Add(1)
	writeJSON(w, http.StatusOK, out)
}

// recordTwinDrift folds one completed simulation cell into the
// twin-drift metrics: the twin predicts the same cell, and the
// absolute relative error lands in the drift histogram (basis points).
// Every simulated cell therefore doubles as a free calibration sample,
// and /metrics carries a running answer to "how far off is the twin
// right now?".
func (s *Server) recordTwinDrift(wl *harness.Workloads, cell harness.CellSpec, res harness.Result) {
	if res.Elapsed <= 0 {
		return
	}
	tp := harness.NewPredictor(wl)
	pred, err := tp.PredictCell(cell)
	if err != nil {
		return // cell family the twin does not model; drift undefined
	}
	drift := float64(pred-res.Elapsed) / float64(res.Elapsed)
	if drift < 0 {
		drift = -drift
	}
	m := &s.met
	m.driftMu.Lock()
	m.twinDrift.Record(int64(drift * 10000))
	m.twinDriftLast = drift
	m.driftMu.Unlock()
}
