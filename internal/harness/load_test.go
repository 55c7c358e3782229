package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/workload"
)

func quickLoadCell(config string) LoadCell {
	return LoadCell{Config: config, Nodes: 4, Offered: 2, Params: QuickLoadParams()}
}

// TestLoadRecordReplay pins the trace artifact contract: a recorded
// trace decodes and replays to the identical report rows, under any
// config of the recorded service and under no other.
func TestLoadRecordReplay(t *testing.T) {
	for _, svc := range loadConfigs {
		config := svc.name
		c := quickLoadCell(config)
		tr, err := c.GenerateTrace()
		if err != nil {
			t.Fatal(err)
		}
		var artifact bytes.Buffer
		if err := tr.Encode(&artifact); err != nil {
			t.Fatal(err)
		}
		direct, err := RunLoadTrace(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := workload.Decode(bytes.NewReader(artifact.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunLoadTrace(c, decoded)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := EmitJSON(&a, "load", direct); err != nil {
			t.Fatal(err)
		}
		if err := EmitJSON(&b, "load", replayed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: replay of recorded trace diverges:\n%s\nvs\n%s", config, a.String(), b.String())
		}
	}

	tr, err := quickLoadCell("rpc/polling").GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoadTrace(quickLoadCell("rpc/notified"), tr); err != nil {
		t.Errorf("rpc/polling trace under rpc/notified (same service, other dispatch): %v", err)
	}
	for _, other := range []struct{ config, service string }{{"dfs/du", "dfs"}, {"socket/au", "socket"}} {
		_, err := RunLoadTrace(quickLoadCell(other.config), tr)
		if err == nil || !strings.Contains(err.Error(), "the rpc service") || !strings.Contains(err.Error(), "the "+other.service+" service") {
			t.Errorf("rpc trace replayed as %s: err = %v, want an error naming both services", other.config, err)
		}
	}
}

// TestLoadSweepDeterministicText pins the rendered report (the golden
// loadtext digest's invariant) across worker counts, complementing the
// JSON check TestForkDeterminismExperiments runs on the registry.
func TestLoadSweepDeterministicText(t *testing.T) {
	render := func(workers int) string {
		cfg := Config{Nodes: 4, Workloads: QuickWorkloads(), Workers: workers}
		var buf bytes.Buffer
		PrintLoad(&buf, cfg, LoadSweep(cfg))
		return buf.String()
	}
	serial := render(1)
	if wide := render(8); wide != serial {
		t.Fatalf("load sweep text differs between workers=1 and workers=8:\n%s\nvs\n%s", serial, wide)
	}
	if len(serial) == 0 {
		t.Fatal("empty load report")
	}
}

// TestLoadCellSeedsDiffer pins that the trace is a function of the full
// cell identity: changing any coordinate changes the generated trace.
func TestLoadCellSeedsDiffer(t *testing.T) {
	base := quickLoadCell("rpc/polling")
	variants := []LoadCell{
		{Config: "rpc/notified", Nodes: base.Nodes, Offered: base.Offered, Params: base.Params},
		{Config: base.Config, Nodes: 8, Offered: base.Offered, Params: base.Params},
		{Config: base.Config, Nodes: base.Nodes, Offered: 4, Params: base.Params},
	}
	enc := func(c LoadCell) string {
		tr, err := c.GenerateTrace()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := enc(base)
	if again := enc(base); again != want {
		t.Fatal("GenerateTrace is not deterministic for a fixed cell")
	}
	for _, v := range variants {
		if enc(v) == want {
			t.Errorf("cell %+v generated the same trace as the base cell", v)
		}
	}
}

// TestLoadCellValidation covers the error paths: a cell that cannot
// run has no canonical encoding either.
func TestLoadCellValidation(t *testing.T) {
	bad := []LoadCell{
		{Config: "telnet/du", Nodes: 4, Offered: 1, Params: QuickLoadParams()},
		{Config: "rpc/polling", Nodes: 0, Offered: 1, Params: QuickLoadParams()},
		{Config: "rpc/polling", Nodes: 4, Offered: 0, Params: QuickLoadParams()},
		{Config: "rpc/polling", Nodes: 4, Offered: math.Inf(1), Params: QuickLoadParams()},
		{Config: "rpc/polling", Nodes: 4, Offered: math.NaN(), Params: QuickLoadParams()},
	}
	for _, c := range bad {
		if _, err := RunLoadCell(c); err == nil {
			t.Errorf("RunLoadCell accepted invalid cell %+v", c)
		}
		if key, err := c.Canonical(); err == nil {
			t.Errorf("Canonical encoded invalid cell %+v as %s", c, key)
		}
	}
}

// FuzzLoadCellCanonical drives LoadCell JSON through Canonical and
// spec, generating no traces. The two must agree on which cells are
// valid, and a valid cell's encoding must be deterministic and differ
// on a different machine size.
func FuzzLoadCellCanonical(f *testing.F) {
	for _, w := range []Workloads{QuickWorkloads(), DefaultWorkloads()} {
		cfg := DefaultExperimentConfig()
		cfg.Workloads = w
		for _, c := range LoadCells(cfg) {
			js, err := json.Marshal(c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(js)
		}
	}
	for _, s := range []string{
		`{"config":"telnet/du","nodes":4,"offered":1}`,
		`{"config":"dfs/du","nodes":1025,"offered":1}`,
		`{"config":"rpc/polling","nodes":4,"offered":-1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c LoadCell
		if json.Unmarshal(data, &c) != nil {
			return
		}
		key, err := c.Canonical()
		if _, _, serr := c.spec(); (err == nil) != (serr == nil) {
			t.Fatalf("%s: Canonical error %v but spec error %v", data, err, serr)
		}
		if err != nil {
			return
		}
		if again, _ := c.Canonical(); !bytes.Equal(again, key) {
			t.Fatalf("%s: Canonical is not deterministic:\n%s\n%s", data, key, again)
		}
		other := c
		other.Nodes = c.Nodes + 1
		if c.Nodes == machine.MaxNodes {
			other.Nodes = c.Nodes - 1
		}
		if got, err := other.Canonical(); err != nil || bytes.Equal(got, key) {
			t.Fatalf("%s on %d nodes: encoding %s (%v), want one differing from %s", data, other.Nodes, got, err, key)
		}
	})
}

// TestLoadClassTotals checks the metric-export aggregation.
func TestLoadClassTotals(t *testing.T) {
	cfg := Config{Nodes: 4, Workloads: QuickWorkloads(), Workers: 4}
	rows := LoadSweep(cfg)
	classes, reqs, bytesBy, soj := LoadClassTotals(rows)
	if len(classes) == 0 {
		t.Fatal("no classes aggregated")
	}
	for _, name := range classes {
		if reqs[name] <= 0 || bytesBy[name] <= 0 {
			t.Errorf("class %s: empty totals (%d reqs, %d bytes)", name, reqs[name], bytesBy[name])
		}
		if soj[name] == nil || soj[name].Count() != reqs[name] {
			t.Errorf("class %s: merged histogram count mismatch", name)
		}
	}
}

// TestLoadCellCensus pins the engine's dispatch census for the quick
// socket/au cell at offered load 0.5, as the quick load sweep runs it:
// a deterministic stand-in for its host cost. Its AU sends stream
// through SleepThen steps, so step wakeups must stay well above process
// handoffs; a change that sends those wakeups back through process
// switches fails here without any timing.
func TestLoadCellCensus(t *testing.T) {
	c := LoadCell{Config: "socket/au", Nodes: 16, Offered: 0.5, Params: QuickLoadParams()}
	tr, err := c.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := runLoadTrace(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Census{Handoffs: 2699, SelfWakeups: 3316, FnEvents: 16596, Steps: 14199}
	if got != want {
		t.Errorf("census %+v, want %+v", got, want)
	}
	if got.Steps <= 4*got.Handoffs {
		t.Errorf("%d step wakeups against %d handoffs: want more than 4x", got.Steps, got.Handoffs)
	}
}
