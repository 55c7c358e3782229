package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestLoadJobMetrics runs a quick load-experiment job end to end and
// checks that its open-loop traffic shows up on /metrics: per-class
// request/byte counters, sojourn summaries, and the last sweep's
// offered/goodput gauges.
func TestLoadJobMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 4, SimWorkers: 4})

	st := submit(t, ts, JobRequest{Experiment: "load", Quick: true})
	waitFor(t, ts, st.ID, "done", func(s jobStatus) bool { return s.State == StateDone })

	out := streamResults(t, ts, st.ID)
	if !strings.Contains(string(out), `"experiment":"load"`) {
		t.Fatalf("results stream missing load rows:\n%.300s", out)
	}

	_, body := call(t, ts, http.MethodGet, "/metrics", nil)
	text := string(body)
	for _, want := range []string{
		`shrimpd_load_requests_total{class="bulk"}`,
		`shrimpd_load_requests_total{class="small"}`,
		`shrimpd_load_bytes_total{class="block"}`,
		`shrimpd_load_sojourn_ns{class="big",quantile="0.99"}`,
		`shrimpd_load_sojourn_ns_count{class="bulk"}`,
		`shrimpd_load_offered_mbps{config="rpc/polling",class="small",offered="0.5"}`,
		`shrimpd_load_goodput_mbps{config="dfs/du",class="block",offered="2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestMetricsWithoutLoad pins that the load section is absent until a
// load job has run (no empty HELP/TYPE stanzas on a fresh daemon).
func TestMetricsWithoutLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 4})
	_, body := call(t, ts, http.MethodGet, "/metrics", nil)
	if strings.Contains(string(body), "shrimpd_load_") {
		t.Fatalf("fresh daemon already exposes load metrics:\n%.300s", body)
	}
}
