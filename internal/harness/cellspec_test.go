package harness

import (
	"bytes"
	"encoding/json"
	"math"
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

// TestCompileNodeBound pins the machine-size bound at the cell
// boundary: Compile accepts machine.MaxNodes (1024) and refuses one
// more, or MaxInt64, whose mesh sizing would never finish, with an
// error that names the limit. Load cells share the bound.
func TestCompileNodeBound(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		ok    bool
	}{{1, true}, {1024, true}, {0, false}, {1025, false}, {math.MaxInt64, false}} {
		_, err := CellSpec{App: "radix-svm", Nodes: tc.nodes}.Compile()
		if tc.ok != (err == nil) {
			t.Errorf("%d nodes: Compile error %v, want ok=%v", tc.nodes, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "1024") {
			t.Errorf("%d nodes: error %q does not name the limit", tc.nodes, err)
		}
	}
	lc := LoadCell{Config: "rpc/notified", Nodes: 1025, Offered: 1, Params: QuickLoadParams()}
	if _, err := lc.Canonical(); err == nil || !strings.Contains(err.Error(), "1024") {
		t.Errorf("load cell of 1025 nodes: Canonical error %v, want one naming 1024", err)
	}
}

// spelledOut returns k with every unset knob set to its as-built value.
func spelledOut(k Knobs) Knobs {
	as := machine.DefaultConfig(1)
	set := func(p **bool, v bool) {
		if *p == nil {
			*p = bptr(v)
		}
	}
	seti := func(p **int, v int) {
		if *p == nil {
			*p = iptr(v)
		}
	}
	set(&k.SyscallPerSend, as.SyscallPerSend)
	set(&k.InterruptPerMessage, as.NIC.InterruptPerMessage)
	set(&k.InterruptPerPacket, as.NIC.InterruptPerPacket)
	set(&k.Combining, as.NIC.Combining)
	seti(&k.OutFIFOBytes, as.NIC.OutFIFOBytes)
	seti(&k.FIFOThresholdBytes, as.NIC.FIFOThresholdBytes)
	seti(&k.FIFOLowWaterBytes, as.NIC.FIFOLowWaterBytes)
	seti(&k.DUQueueDepth, as.NIC.DUQueueDepth)
	return k
}

// respellings returns cells that request the same simulation as c,
// which compiled to spec: the app's display name or alias in other
// cases, the variant in other cases or spelled out at its default, an
// SVM variant as the protocol it implies, and every unset knob spelled
// out at its as-built value.
func respellings(c CellSpec, spec Spec) []CellSpec {
	var out []CellSpec
	d := appDecls[spec.App]
	for _, name := range []string{d.alias, strings.ToUpper(d.alias), " " + d.alias + "\t",
		d.name, strings.ToLower(d.name), strings.ToUpper(d.name)} {
		r := c
		r.App = name
		out = append(out, r)
	}
	v := spec.Variant.String()
	for _, variant := range []string{v, strings.ToLower(v)} {
		r := c
		r.Variant = variant
		out = append(out, r)
	}
	if spec.App.API() == "SVM" {
		// The resolved protocol, spelled explicitly, overrides any variant.
		p := resolveProto(spec).String()
		for _, variant := range []string{"", "au", "DU"} {
			r := c
			r.Variant, r.Protocol = variant, strings.ToLower(p)
			out = append(out, r)
		}
	}
	r := c
	r.Knobs = spelledOut(c.Knobs)
	out = append(out, r)
	r.App, r.Variant = strings.ToUpper(d.name), strings.ToLower(v)
	return append(out, r)
}

// FuzzCellSpecCanonical drives CellSpec JSON through Compile and
// Canonical. No input that decodes may make either panic or hang, and
// for every cell that compiles the canonical encoding must be
// deterministic, equal under each respelling of the same simulation,
// and different on a different machine size.
func FuzzCellSpecCanonical(f *testing.F) {
	cfg := DefaultExperimentConfig()
	cfg.Workloads = QuickWorkloads()
	for _, e := range Experiments() {
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(cfg) {
			js, err := json.Marshal(c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(js)
		}
	}
	for _, s := range []string{
		`{"app":"radix-svm","nodes":9223372036854775807}`,
		`{"app":"ocean-nx","nodes":1025}`,
		`{"app":"nonesuch","nodes":4}`,
		`{"app":"BaRnEs-SvM","nodes":4,"variant":"Du","protocol":"hLrC-aU"}`,
		`{"app":"DFS-SOCKETS","nodes":2,"variant":"au","knobs":{"combining":false}}`,
	} {
		f.Add([]byte(s))
	}
	w := &cfg.Workloads
	f.Fuzz(func(t *testing.T, data []byte) {
		var c CellSpec
		if json.Unmarshal(data, &c) != nil {
			return
		}
		spec, err := c.Compile()
		key, kerr := c.Canonical(w)
		if (err == nil) != (kerr == nil) {
			t.Fatalf("%s: Compile error %v but Canonical error %v", data, err, kerr)
		}
		if err != nil {
			return
		}
		if again, _ := c.Canonical(w); !bytes.Equal(again, key) {
			t.Fatalf("%s: Canonical is not deterministic:\n%s\n%s", data, key, again)
		}
		for _, r := range respellings(c, spec) {
			if got, err := r.Canonical(w); err != nil || !bytes.Equal(got, key) {
				t.Fatalf("%s respelled as %+v: encoding %s (%v), want %s", data, r, got, err, key)
			}
		}
		other := c
		other.Nodes = c.Nodes + 1
		if c.Nodes == machine.MaxNodes {
			other.Nodes = c.Nodes - 1
		}
		if got, err := other.Canonical(w); err != nil || bytes.Equal(got, key) {
			t.Fatalf("%s on %d nodes: encoding %s (%v), want one differing from %s", data, other.Nodes, got, err, key)
		}
	})
}
