package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func sessionsJSON(t *testing.T, ss []session) string {
	t.Helper()
	b, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSessionsDeterministicPerSeed(t *testing.T) {
	a, b := genSessions(7, 200), genSessions(7, 200)
	if sessionsJSON(t, a) != sessionsJSON(t, b) {
		t.Error("the same seed gave two different session sequences")
	}
	if sessionsJSON(t, a) == sessionsJSON(t, genSessions(8, 200)) {
		t.Error("seeds 7 and 8 gave the same session sequence")
	}
	if got := sessionsJSON(t, genSessions(7, 37)); got != sessionsJSON(t, a[:37]) {
		t.Error("a shorter sequence is not a prefix of a longer one")
	}
}

// TestSessionShape checks what makes every seed hold the same work:
// each block has one cold session per app and one exact repeat of an
// earlier cold session, no cold job reuses a cell, and each app's job
// cells see every knob value equally often.
func TestSessionShape(t *testing.T) {
	ss := genSessions(11, maxSessions)
	if len(ss) != maxSessions {
		t.Fatalf("generated %d sessions, want %d", len(ss), maxSessions)
	}
	seen := map[string]bool{}
	fifo := map[string]map[int]int{}
	for b := 0; b+blockSize <= len(ss); b += blockSize {
		apps := map[string]int{}
		repeats := 0
		for i := b; i < b+blockSize; i++ {
			s := ss[i]
			if s.Repeat >= 0 {
				repeats++
				if s.Repeat >= i || ss[s.Repeat].Repeat >= 0 || !reflect.DeepEqual(s.Job, ss[s.Repeat].Job) {
					t.Fatalf("session %d repeats %d, which is not an earlier cold session with the same job", i, s.Repeat)
				}
				continue
			}
			app := s.Job[0].App
			apps[app]++
			for _, c := range s.Grid {
				if c.App != app || c.Nodes != sessionNodes {
					t.Fatalf("session %d grid mixes cells: %+v", i, c)
				}
			}
			for _, c := range s.Job {
				b, _ := json.Marshal(c)
				key := string(b)
				if seen[key] {
					t.Fatalf("session %d reuses job cell %+v", i, c)
				}
				seen[key] = true
				if fifo[app] == nil {
					fifo[app] = map[int]int{}
				}
				fifo[app][*c.Knobs.OutFIFOBytes]++
			}
		}
		if repeats != 1 || len(apps) != len(whatifApps) {
			t.Fatalf("block at %d has %d repeats and apps %v", b, repeats, apps)
		}
	}
	for app, counts := range fifo {
		lo, hi := 1<<30, 0
		for _, n := range counts {
			lo, hi = min(lo, n), max(hi, n)
		}
		// Redrawing a setting a job already used skews the decks a
		// little; the FIFO sizes stay within a tenth of each other.
		if len(counts) != len(fifoBytes) || float64(hi) > 1.1*float64(lo) {
			t.Errorf("%s FIFO settings are unbalanced: %v", app, counts)
		}
	}
}

// TestBenchmarkSpecMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkSpecMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		units := map[string]string{}
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		for _, m := range want {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: the benchmark prints %s (%s), BENCHMARK.json has unit %q", kind, m.name, m.unit, u)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
