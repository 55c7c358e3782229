package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"shrimp/internal/apps/barnes"
	"shrimp/internal/apps/dfs"
	"shrimp/internal/apps/ocean"
	"shrimp/internal/apps/render"
	"shrimp/internal/machine"
	"shrimp/internal/nx"
	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/socketlib"
	"shrimp/internal/vmmc"
)

// TestCompileRejectsBadKnobs pins the knob ranges Compile enforces
// against the resolved machine: each bad range is refused for every
// app, and the boundary values are accepted.
func TestCompileRejectsBadKnobs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		knobs Knobs
		want  string // "" = accepted; otherwise a substring of the error
	}{
		{"du queue depth 0", Knobs{DUQueueDepth: iptr(0)}, "du_queue_depth"},
		{"du queue depth -1", Knobs{DUQueueDepth: iptr(-1)}, "du_queue_depth"},
		{"du queue depth 1", Knobs{DUQueueDepth: iptr(1)}, ""},
		{"empty fifo", Knobs{OutFIFOBytes: iptr(0), FIFOThresholdBytes: iptr(0),
			FIFOLowWaterBytes: iptr(0)}, "out_fifo_bytes"},
		{"lone small fifo", Knobs{OutFIFOBytes: iptr(1024)}, "fifo_threshold_bytes"},
		{"threshold above capacity", Knobs{FIFOThresholdBytes: iptr(32*1024 + 1)}, "fifo_threshold_bytes"},
		{"low water above threshold", Knobs{FIFOLowWaterBytes: iptr(24*1024 + 1)}, "fifo_low_water_bytes"},
		{"negative low water", Knobs{FIFOLowWaterBytes: iptr(-1)}, "fifo_low_water_bytes"},
		{"fifo trio", Knobs{OutFIFOBytes: iptr(1024), FIFOThresholdBytes: iptr(768),
			FIFOLowWaterBytes: iptr(256)}, ""},
		{"one-byte fifo", Knobs{OutFIFOBytes: iptr(1), FIFOThresholdBytes: iptr(1),
			FIFOLowWaterBytes: iptr(0)}, ""},
	} {
		for _, app := range AppAliases() {
			_, err := CellSpec{App: app, Nodes: 4, Knobs: tc.knobs}.Compile()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s/%s: rejected: %v", tc.name, app, err)
			case tc.want != "" && err == nil:
				t.Errorf("%s/%s: accepted", tc.name, app)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s/%s: error %q does not name %s", tc.name, app, err, tc.want)
			}
		}
	}
}

// singlePhaseRun is the reference for the NX and sockets apps: the
// knobs go into the config before the machine is built, and the app
// runs in one phase with the combining knob copied into the sockets
// library. Run must match it, although it builds the as-built machine
// and sets the knobs on the live NICs.
func singlePhaseRun(spec Spec, w *Workloads) Result {
	cfg := machine.DefaultConfig(spec.Nodes)
	spec.Knobs.apply(&cfg)
	m := machine.New(cfg)
	defer m.Close()
	sys := vmmc.NewSystem(m)
	var elapsed sim.Time
	switch spec.App {
	case BarnesNX, OceanNX:
		mode := ring.AU
		if spec.Variant == VariantDU {
			mode = ring.DU
		}
		c := nx.New(sys, nx.Config{Mode: mode, RingBytes: 128 * 1024})
		if spec.App == BarnesNX {
			elapsed = barnes.RunNX(c, w.BarnesNX)
		} else {
			elapsed = ocean.RunNX(c, w.OceanNX)
		}
	default:
		scfg := socketlib.DefaultConfig()
		if spec.Variant == VariantAU {
			scfg.Mode = ring.AU
		}
		scfg.Combine = cfg.NIC.Combining
		if spec.App == DFSSockets {
			elapsed = dfs.Run(sys, scfg, w.DFS)
		} else {
			elapsed = render.Run(sys, scfg, w.Render)
		}
	}
	return collectResult(m, elapsed)
}

// TestRunMatchesSinglePhase pins Run for the four apps without a
// warmup phase against singlePhaseRun, under both variants
// and every knob set the registry turns plus a DU queue depth of 2.
func TestRunMatchesSinglePhase(t *testing.T) {
	cfg := Config{Nodes: 4, Workloads: QuickWorkloads()}
	knobSets := []Knobs{{DUQueueDepth: iptr(2)}}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(cfg) {
			key, err := json.Marshal(c.Knobs)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				knobSets = append(knobSets, c.Knobs)
			}
		}
	}
	for _, app := range []App{BarnesNX, OceanNX, DFSSockets, RenderSockets} {
		for _, v := range []Variant{VariantAU, VariantDU} {
			for _, k := range knobSets {
				spec := Spec{App: app, Nodes: cfg.Nodes, Variant: v, Knobs: k}
				if err := spec.checkKnobs(); err != nil {
					t.Fatal(err)
				}
				got, want := Run(spec, &cfg.Workloads), singlePhaseRun(spec, &cfg.Workloads)
				if got != want {
					key, _ := json.Marshal(k)
					t.Errorf("%s knobs %s: Run diverges from the single-phase reference:\nwant %+v\ngot  %+v",
						spec.Label(), key, want, got)
				}
			}
		}
	}
}
