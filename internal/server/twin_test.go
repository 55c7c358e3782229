package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shrimp/internal/harness"
)

func postTwin(t *testing.T, ts *httptest.Server, req TwinRequest) (int, []byte) {
	t.Helper()
	resp, out := call(t, ts, http.MethodPost, "/v1/twin", req)
	return resp.StatusCode, out
}

// TestTwinEndpoint checks POST /v1/twin answers synchronously — cell
// grids and named experiments both — without ever touching the job
// queue, and that the answers are counted on /metrics.
func TestTwinEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := postTwin(t, ts, TwinRequest{
		Quick: true,
		Cells: []harness.CellSpec{
			{App: "radix-vmmc", Nodes: 2, Variant: "au"},
			{App: "barnes-nx", Nodes: 4, Variant: "du"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("cells twin: status %d: %s", code, body)
	}
	var rows []twinCellRow
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("cells twin: %v in %s", err, body)
	}
	if len(rows) != 2 {
		t.Fatalf("cells twin: %d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Index != i || r.TwinNs <= 0 {
			t.Fatalf("row %d: %+v", i, r)
		}
	}

	code, body = postTwin(t, ts, TwinRequest{Experiment: "latency", Quick: true})
	if code != http.StatusOK {
		t.Fatalf("experiment twin: status %d: %s", code, body)
	}
	var lat []harness.TwinRow
	if err := json.Unmarshal(body, &lat); err != nil {
		t.Fatalf("experiment twin: %v in %s", err, body)
	}
	if len(lat) != 4 {
		t.Fatalf("experiment twin: %d rows, want 4", len(lat))
	}

	// Twin answers never enter the job queue.
	var jobs []jobStatus
	getJSON(t, ts, "/v1/jobs", &jobs)
	if len(jobs) != 0 {
		t.Fatalf("twin answers created %d jobs, want 0", len(jobs))
	}

	// Both answers are counted; the drift gauges are present even
	// before any simulation ran.
	_, met := call(t, ts, http.MethodGet, "/metrics", nil)
	for _, want := range []string{
		"shrimpd_twin_answers_total 2",
		"shrimpd_twin_drift_last_pct",
		"shrimpd_twin_drift_bp",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Malformed requests fail fast.
	if code, _ := postTwin(t, ts, TwinRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty twin request: status %d, want 400", code)
	}
	if code, _ := postTwin(t, ts, TwinRequest{Experiment: "nope"}); code != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", code)
	}
}

// TestTwinDriftGauge checks a completed simulation cell feeds the
// twin-vs-DES drift gauges.
func TestTwinDriftGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st := submit(t, ts, JobRequest{
		Quick: true,
		Cells: []harness.CellSpec{{App: "radix-vmmc", Nodes: 2, Variant: "au"}},
	})
	waitFor(t, ts, st.ID, "done", func(s jobStatus) bool { return s.State == StateDone })

	_, met := call(t, ts, http.MethodGet, "/metrics", nil)
	if !strings.Contains(string(met), "shrimpd_twin_drift_bp_count 1") {
		t.Errorf("drift histogram did not record the simulated cell:\n%s", met)
	}
	if strings.Contains(string(met), "shrimpd_twin_drift_last_pct 0\n") {
		t.Errorf("last-drift gauge still zero after a simulated cell")
	}
}
