package harness

import (
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// LatencyResult holds the §4.1/§4.2 microbenchmarks.
type LatencyResult struct {
	DUSmall      sim.Time // paper: 6 us
	AUWord       sim.Time // paper: 3.71 us
	SendOverhead sim.Time // paper: < 2 us
	MyrinetLike  sim.Time // paper: slightly under 10 us on faster nodes
}

// latencyLabels names the four microbenchmarks in report order, the
// order scalars lists them in.
var latencyLabels = [4]string{"du-small", "au-word", "send-overhead", "myrinet-like"}

// scalars lists the microbenchmarks in latencyLabels order.
func (r LatencyResult) scalars() [4]sim.Time {
	return [4]sim.Time{r.DUSmall, r.AUWord, r.SendOverhead, r.MyrinetLike}
}

// PaperLatency returns the published values.
func PaperLatency() LatencyResult {
	return LatencyResult{
		DUSmall:      6 * sim.Microsecond,
		AUWord:       3710 * sim.Nanosecond,
		SendOverhead: 2 * sim.Microsecond,
		MyrinetLike:  10 * sim.Microsecond,
	}
}

// latencyPair builds a two-node system with an export/import pair.
func latencyPair(cfg machine.Config) (*machine.Machine, *vmmc.Export, *vmmc.Import) {
	m := machine.New(cfg)
	s := vmmc.NewSystem(m)
	var ex *vmmc.Export
	var imp *vmmc.Import
	m.RunParallel("setup", func(nd *machine.Node, p *sim.Proc) {
		if nd.ID == 1 {
			ex = s.EP(1).Export(p, 1)
		}
	})
	m.RunParallel("setup2", func(nd *machine.Node, p *sim.Proc) {
		if nd.ID == 0 {
			imp = s.EP(0).Import(p, ex)
		}
	})
	return m, ex, imp
}

// duLatency measures one-way user-to-user small-message latency.
func duLatency(cfg machine.Config) sim.Time {
	m, ex, imp := latencyPair(cfg)
	defer m.Close()
	src := m.Nodes[0].Mem.Alloc(1)
	var start, end sim.Time
	m.RunParallel("lat", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			nd.CPUFor(p).Flush(p)
			start = p.Now()
			imp.Send(p, src, 0, 4, vmmc.SendOpts{})
		case 1:
			ex.WaitUpdate(p, 0)
			end = p.Now()
		}
	})
	return end - start
}

// auLatency measures single-word automatic-update latency.
func auLatency(cfg machine.Config) sim.Time {
	m, ex, imp := latencyPair(cfg)
	defer m.Close()
	local := m.Nodes[0].Mem.Alloc(1)
	var start, end sim.Time
	m.RunParallel("lat", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			imp.BindAU(p, local, 0, 1, false, false)
			nd.CPUFor(p).Flush(p)
			start = p.Now()
			nd.StoreUint32(p, local+64, 1)
			nd.CPUFor(p).Flush(p)
		case 1:
			ex.WaitUpdate(p, 0)
			end = p.Now()
		}
	})
	return end - start
}

// sendOverhead measures the CPU time consumed by one send initiation.
func sendOverhead(cfg machine.Config) sim.Time {
	m, _, imp := latencyPair(cfg)
	defer m.Close()
	src := m.Nodes[0].Mem.Alloc(1)
	var overhead sim.Time
	m.RunParallel("ovh", func(nd *machine.Node, p *sim.Proc) {
		if nd.ID != 0 {
			return
		}
		nd.CPUFor(p).Flush(p)
		t0 := p.Now()
		imp.Send(p, src, 0, 4, vmmc.SendOpts{})
		nd.CPUFor(p).Flush(p)
		overhead = p.Now() - t0
	})
	return overhead
}

// Latency runs the microbenchmarks on the SHRIMP configuration and the
// Myrinet-like comparison system.
func Latency() LatencyResult {
	shrimp := machine.DefaultConfig(2)
	return LatencyResult{
		DUSmall:      duLatency(shrimp),
		AUWord:       auLatency(shrimp),
		SendOverhead: sendOverhead(shrimp),
		MyrinetLike:  duLatency(machine.MyrinetLikeConfig(2)),
	}
}
