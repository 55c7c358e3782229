package harness

import (
	"bytes"
	"testing"

	"shrimp/internal/apps/radix"
	"shrimp/internal/machine"
	"shrimp/internal/vmmc"
)

// TestFastPathGolden runs one representative cell twice — once as
// shipped through Run, and once on a machine built directly with every
// data-path optimization disabled (mesh route cache and packet
// freelist off, NIC packet/request pools off) —
// and requires the rendered report rows to be byte-identical. The
// pooling and caching layers are pure implementation: if they ever leak
// into simulated time or counters, this test is the tripwire.
func TestFastPathGolden(t *testing.T) {
	wl := QuickWorkloads()
	spec := Spec{App: RadixVMMC, Nodes: 4, Variant: VariantAU}

	optimized := Run(spec, &wl)

	cfg := machine.DefaultConfig(spec.Nodes)
	cfg.Mesh.NoFastPath = true
	cfg.NIC.NoPool = true
	m := machine.New(cfg)
	defer m.Close()
	plain := collectResult(m, radix.RunVMMC(vmmc.NewSystem(m), radix.AU, wl.Radix))

	if optimized != plain {
		t.Fatalf("results diverge with fast path disabled:\noptimized: %+v\nplain:     %+v",
			optimized, plain)
	}

	// Compare the rendered rows too, exactly as a report consumer sees
	// them, so even a formatting-level divergence fails.
	var a, b bytes.Buffer
	if err := EmitJSON(&a, "golden", optimized); err != nil {
		t.Fatal(err)
	}
	if err := EmitJSON(&b, "golden", plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("report rows not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
}
