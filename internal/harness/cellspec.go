package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"shrimp/internal/machine"
	"shrimp/internal/svm"
)

// CellSpec is the serializable form of one simulation cell: the same
// request a Spec expresses, but as plain data, so it can cross an API
// boundary, be hashed for the result cache, and round-trip through
// JSON. The harness's experiments build their grids from CellSpecs,
// which is what lets a cell produced by any path — CLI flags, the
// experiment registry, or a shrimpd job — share one cache.
type CellSpec struct {
	// App is an application name: either the display name ("Barnes-SVM")
	// or its lowercase CLI alias ("barnes-svm"); see ParseApp.
	App string `json:"app"`
	// Nodes is the machine size, 1..machine.MaxNodes.
	Nodes int `json:"nodes"`
	// Variant is "AU", "DU" or "" for the application's default
	// (DefaultVariant). Case-insensitive.
	Variant string `json:"variant,omitempty"`
	// Protocol overrides the SVM protocol implied by Variant: "HLRC",
	// "HLRC-AU" or "AURC" (case-insensitive); "" applies no override.
	Protocol string `json:"protocol,omitempty"`
	// Knobs are the machine-configuration what-ifs.
	Knobs Knobs `json:"knobs,omitempty"`
}

// Knobs names every machine-configuration knob the paper's what-if
// experiments turn. Nil fields keep the as-built default, so the zero
// Knobs is the shipped SHRIMP system; the canonical encoding resolves
// them against machine.DefaultConfig, which is what makes a spec that
// spells out a default hash identically to one that omits it.
type Knobs struct {
	SyscallPerSend      *bool `json:"syscall_per_send,omitempty"`
	InterruptPerMessage *bool `json:"interrupt_per_message,omitempty"`
	InterruptPerPacket  *bool `json:"interrupt_per_packet,omitempty"`
	Combining           *bool `json:"combining,omitempty"`
	OutFIFOBytes        *int  `json:"out_fifo_bytes,omitempty"`
	FIFOThresholdBytes  *int  `json:"fifo_threshold_bytes,omitempty"`
	FIFOLowWaterBytes   *int  `json:"fifo_low_water_bytes,omitempty"`
	DUQueueDepth        *int  `json:"du_queue_depth,omitempty"`
}

// apply mutates a machine configuration with the set knobs.
func (k Knobs) apply(c *machine.Config) {
	if k.SyscallPerSend != nil {
		c.SyscallPerSend = *k.SyscallPerSend
	}
	if k.InterruptPerMessage != nil {
		c.NIC.InterruptPerMessage = *k.InterruptPerMessage
	}
	if k.InterruptPerPacket != nil {
		c.NIC.InterruptPerPacket = *k.InterruptPerPacket
	}
	if k.Combining != nil {
		c.NIC.Combining = *k.Combining
	}
	if k.OutFIFOBytes != nil {
		c.NIC.OutFIFOBytes = *k.OutFIFOBytes
	}
	if k.FIFOThresholdBytes != nil {
		c.NIC.FIFOThresholdBytes = *k.FIFOThresholdBytes
	}
	if k.FIFOLowWaterBytes != nil {
		c.NIC.FIFOLowWaterBytes = *k.FIFOLowWaterBytes
	}
	if k.DUQueueDepth != nil {
		c.NIC.DUQueueDepth = *k.DUQueueDepth
	}
}

// machineConfig resolves the machine a spec describes: the as-built
// configuration with the spec's knobs applied. It is the one place the
// canonical encoding and the twin take it from.
func (s Spec) machineConfig() machine.Config {
	cfg := machine.DefaultConfig(s.Nodes)
	s.Knobs.apply(&cfg)
	return cfg
}

// checkKnobs rejects knob values the NIC cannot run: it needs at least
// one deliberate-update request slot, a non-empty outgoing FIFO, and
// FIFO watermarks ordered 0 <= low water <= threshold <= capacity.
// Unset knobs take their as-built values, so a lone out_fifo_bytes
// below the as-built threshold is rejected too. No knob depends on the
// node count, so the check resolves them against a one-node machine:
// it stays cheap and cannot stall on a node count not yet bounded.
func (s Spec) checkKnobs() error {
	cfg := machine.DefaultConfig(1)
	s.Knobs.apply(&cfg)
	c := cfg.NIC
	switch {
	case c.DUQueueDepth < 1:
		return fmt.Errorf("du_queue_depth must be >= 1, got %d", c.DUQueueDepth)
	case c.OutFIFOBytes < 1:
		return fmt.Errorf("out_fifo_bytes must be >= 1, got %d", c.OutFIFOBytes)
	case c.FIFOLowWaterBytes < 0 || c.FIFOLowWaterBytes > c.FIFOThresholdBytes ||
		c.FIFOThresholdBytes > c.OutFIFOBytes:
		return fmt.Errorf("want 0 <= fifo_low_water_bytes (%d) <= fifo_threshold_bytes (%d) <= out_fifo_bytes (%d)",
			c.FIFOLowWaterBytes, c.FIFOThresholdBytes, c.OutFIFOBytes)
	}
	return nil
}

// bptr and iptr build knob values in place (grid builders set many).
func bptr(b bool) *bool { return &b }
func iptr(i int) *int   { return &i }

// AppAliases returns the sorted lowercase application names ParseApp
// accepts, for usage and error text.
func AppAliases() []string {
	names := make([]string, 0, len(appDecls))
	for _, d := range appDecls {
		names = append(names, d.alias)
	}
	sort.Strings(names)
	return names
}

// ParseApp resolves an application name: a display name ("Barnes-SVM")
// or CLI alias ("barnes-svm"), case-insensitively.
func ParseApp(name string) (App, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for a, d := range appDecls {
		if n == d.alias || strings.EqualFold(name, d.name) {
			return App(a), nil
		}
	}
	return 0, fmt.Errorf("harness: unknown app %q (want one of: %s)",
		name, strings.Join(AppAliases(), " "))
}

// ParseVariant resolves "au"/"du" (case-insensitive); ok is false for
// the empty string, which callers treat as "use the app's default".
func ParseVariant(s string) (v Variant, ok bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return 0, false, nil
	case "au":
		return VariantAU, true, nil
	case "du":
		return VariantDU, true, nil
	}
	return 0, false, fmt.Errorf("harness: unknown variant %q (want au or du)", s)
}

// ParseProtocol resolves an SVM protocol name; ok is false for the
// empty string (no override).
func ParseProtocol(s string) (p svm.Protocol, ok bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return 0, false, nil
	case "hlrc":
		return svm.HLRC, true, nil
	case "hlrc-au":
		return svm.HLRCAU, true, nil
	case "aurc":
		return svm.AURC, true, nil
	}
	return 0, false, fmt.Errorf("harness: unknown protocol %q (want hlrc, hlrc-au or aurc)", s)
}

// Compile resolves a CellSpec into a runnable Spec. Defaults are
// filled exactly as the CLI tools fill them: empty Variant selects
// DefaultVariant, empty Protocol applies no override, and unset knobs
// leave the as-built machine configuration alone. Nodes is checked
// first, against 1..machine.MaxNodes, and knob values against the
// resolved machine (see checkKnobs).
func (c CellSpec) Compile() (Spec, error) {
	if c.Nodes < 1 || c.Nodes > machine.MaxNodes {
		return Spec{}, fmt.Errorf("harness: cell %s: nodes must be in 1..%d, got %d", c.App, machine.MaxNodes, c.Nodes)
	}
	app, err := ParseApp(c.App)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{App: app, Nodes: c.Nodes, Variant: DefaultVariant(app)}
	if v, ok, err := ParseVariant(c.Variant); err != nil {
		return Spec{}, err
	} else if ok {
		spec.Variant = v
	}
	if p, ok, err := ParseProtocol(c.Protocol); err != nil {
		return Spec{}, err
	} else if ok {
		spec.Protocol = &p
	}
	spec.Knobs = c.Knobs
	if err := spec.checkKnobs(); err != nil {
		return Spec{}, fmt.Errorf("harness: cell %s: %w", c.App, err)
	}
	return spec, nil
}

// cellEncodingVersion tags the canonical encoding; bump it whenever a
// change outside the encoded state (cost constants compiled into the
// applications, protocol behavior, engine semantics) can alter a
// cell's result, so stale disk-cache entries can never be mistaken for
// current ones. v2: phased execution for the apps with a warmup phase —
// warmup runs in its own parallel phase and knobs land at the phase
// boundary, which moves every timing relative to v1.
const cellEncodingVersion = 2

// canonicalCell is the default-filled, deterministic encoding of one
// cell. Field order is fixed by the struct, every knob appears as its
// effective value, and the exact workload parameters the cell runs
// under are embedded — so the encoding, and therefore its hash, is a
// complete description of the simulation about to run.
type canonicalCell struct {
	Version  int            `json:"v"`
	App      string         `json:"app"`
	Nodes    int            `json:"nodes"`
	Variant  string         `json:"variant"`
	Protocol string         `json:"protocol"`
	Machine  machine.Config `json:"machine"`
	Workload any            `json:"workload"`
}

// Canonical returns the canonical encoding of the cell joined with the
// workload parameters it will run under: deterministic JSON with every
// default filled in. Two specs that request the same simulation — one
// spelling out defaults the other omits, fields in any order, a
// variant versus the protocol it implies — encode identically, which
// is the property the content-addressed result cache keys on.
func (c CellSpec) Canonical(w *Workloads) ([]byte, error) {
	spec, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return spec.canonical(w)
}

// canonical is the encoding behind CellSpec.Canonical, which RunCells
// uses to key compiled specs. It covers the compiled fields only: a
// tracer has no encoding, so RunCells never caches a traced spec.
func (s Spec) canonical(w *Workloads) ([]byte, error) {
	cc := canonicalCell{
		Version:  cellEncodingVersion,
		App:      s.App.String(),
		Nodes:    s.Nodes,
		Machine:  s.machineConfig(),
		Workload: appDecls[s.App].workload(w),
	}
	if s.App.API() == "SVM" {
		// SVM cells are fully described by their protocol: the variant
		// only selects one (AU -> AURC, DU -> HLRC), and an explicit
		// Protocol overrides it. Encoding the resolved protocol makes
		// {variant: AU} and {protocol: AURC} the same cell.
		cc.Protocol = resolveProto(s).String()
	} else {
		cc.Variant = s.Variant.String()
	}
	return json.Marshal(cc)
}
