package harness

import (
	"math"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/svm"
	"shrimp/internal/twin"
	"shrimp/internal/workload"
)

// Predictor evaluates harness cells with the analytical twin: the same
// CellSpec/LoadCell inputs the simulator takes, answered as a closed
// form in microseconds of host time instead of seconds of simulation.
//
// The mesh, NIC and CPU cost terms are exact (pinned against the
// device oracles in internal/twin); the per-application communication
// profiles are structural counts (messages, bytes, barriers, faults)
// read off the application source, composed serially and scaled by a
// per-app overlap constant calibrated once against the simulator (see
// docs/twin.md and the calibrate command). Compute totals use the
// applications' own work oracles where the count is data-dependent
// (Barnes tree walks, Render early-terminated rays), so they are exact
// too.
type Predictor struct {
	w *Workloads
}

// NewPredictor builds a predictor over a workload set (problem sizes
// are part of a cell's identity, exactly as for the simulator).
func NewPredictor(w *Workloads) *Predictor { return &Predictor{w: w} }

// PredictSpec returns the twin's elapsed-time estimate for one cell.
func (tp *Predictor) PredictSpec(spec Spec) sim.Time {
	m := twin.New(spec.machineConfig())
	pf := tp.profile(spec, m)
	return compose(m, pf, spec.Nodes)
}

// PredictCell compiles a serialized cell and predicts it.
func (tp *Predictor) PredictCell(cs CellSpec) (sim.Time, error) {
	spec, err := cs.Compile()
	if err != nil {
		return 0, err
	}
	return tp.PredictSpec(spec), nil
}

// PredictLatency returns the twin's view of the Table "latency"
// microbenchmarks, directly comparable to Latency().
func (tp *Predictor) PredictLatency() LatencyResult {
	m := twin.New(machine.DefaultConfig(2))
	my := twin.New(machine.MyrinetLikeConfig(2))
	return LatencyResult{
		DUSmall:      m.DUMessage(1, 4),
		AUWord:       m.AUWord(1),
		SendOverhead: m.SendOverhead(),
		MyrinetLike:  my.DUMessage(1, 4),
	}
}

// profile is the structural communication/computation inventory of one
// cell, counted per node along the critical path.
type profile struct {
	compute   sim.Time // CPU charge on the busiest rank
	serial    sim.Time // non-overlapped service time (controller, gathers)
	copyBytes float64  // local memcpy traffic (gather/scatter, ring copies)
	msgs      float64  // DU messages sent by the busiest rank
	msgBytes  float64  // mean DU payload
	rpcs      float64  // synchronous round trips on the critical path
	rpcBytes  float64  // mean response payload of those round trips
	auBytes   float64  // automatic-update stream bytes
	auStores  float64  // individual AU word stores
	recvs     float64  // messages landing on the busiest rank
	barriers  float64
	faults    float64 // SVM page fetches
	diffWords float64 // SVM diff words created + applied
	locks     float64 // SVM lock round trips
	// faultConv is the home-node convoy multiplier on the fetch portion
	// of a fault: after a release, every rank faults the same republished
	// pages, so a fetch waits behind the queue at the hottest home
	// (Barnes: the whole tree lives at rank 0). 0/1 = uncontended.
	faultConv float64
	// lockConv is the mean number of earlier holders a lock acquire
	// waits behind ((n-1)/2 for a global lock all ranks take).
	lockConv float64
	overlap  float64 // calibrated overlap factor on the comm terms
}

// compose folds a profile through the model's cost terms. Terms are
// summed (a serial critical-path view) and the comm sum is scaled by
// the profile's calibrated overlap constant: the simulator overlaps
// engine, wire and CPU work that a closed form cannot, and each app
// hides a different fraction of it.
func compose(m *twin.Model, pf profile, nodes int) sim.Time {
	cfg := m.Config()
	comm := sim.Time(0)

	comm += sim.Time(pf.copyBytes / cfg.Cost.MemCopyBandwidth * 1e9)
	if pf.msgs > 0 {
		per := float64(m.SendOverhead() + m.DUEngineService(int(pf.msgBytes)))
		comm += sim.Time(pf.msgs * per)
	}
	if pf.recvs > 0 {
		pktsPerMsg := 1.0
		if pf.msgBytes > 0 {
			pktsPerMsg = float64(m.DUPackets(int(pf.msgBytes)))
		}
		per := float64(m.RxService(int(pf.msgBytes))) +
			float64(m.InterruptPenaltyPerMessage(pktsPerMsg))
		comm += sim.Time(pf.recvs * per)
	}
	if pf.rpcs > 0 {
		hops := m.MeanHops()
		per := float64(m.DUMessage(int(math.Round(hops)), 64)) +
			float64(m.DUMessage(int(math.Round(hops)), int(pf.rpcBytes))) +
			2*float64(m.InterruptPenaltyPerMessage(float64(m.DUPackets(int(pf.rpcBytes)))))
		comm += sim.Time(pf.rpcs * per)
	}
	if pf.auBytes > 0 || pf.auStores > 0 {
		stores := sim.Time(pf.auStores * float64(cfg.Cost.AUStoreCost))
		pkt := m.AUPacketBytes()
		pkts := pf.auBytes / float64(pkt)
		drain := sim.Time(pkts * float64(m.LinkTime(m.WireSize(pkt))))
		if drain > stores {
			comm += drain
		} else {
			comm += stores
		}
		comm += m.FIFOStall(int(pf.auBytes))
		// Landing the stream on the receivers.
		comm += sim.Time(pkts * float64(m.RxService(pkt)))
	}
	comm += sim.Time(pf.barriers * float64(m.Barrier(nodes)))
	hops := int(math.Round(m.MeanHops()))
	// fetch is one page's trip through its home: request, the home's
	// copy out of memory, the page message back.
	fetch := float64(m.DUMessage(hops, 64)) +
		float64(cfg.Cost.CopyTime(svm.PageSize)) +
		float64(m.DUMessage(hops, svm.PageSize))
	if pf.faults > 0 {
		conv := pf.faultConv
		if conv < 1 {
			conv = 1
		}
		per := float64(cfg.Cost.PageFaultCost) + fetch*conv
		comm += sim.Time(pf.faults * per)
	}
	comm += m.DiffCost(int(pf.diffWords))
	if pf.locks > 0 {
		// An acquire pays the message round trip plus the residency of
		// every earlier holder: the critical section faults the lock
		// page over and updates it (~ 2 fetches' worth).
		hold := 2 * (float64(cfg.Cost.PageFaultCost) + fetch)
		comm += sim.Time(pf.locks * (float64(m.Lock(hops)) + pf.lockConv*hold))
	}

	return pf.compute + pf.serial + sim.Time(float64(comm)*pf.overlap)
}

// profile builds the structural inventory for a spec from its app's
// declaration, scaled by the app's overlap constant for the variant.
func (tp *Predictor) profile(spec Spec, m *twin.Model) profile {
	d := &appDecls[spec.App]
	pf := d.profile(tp.w, spec, *m)
	pf.overlap = d.overlap[spec.Variant]
	return pf
}

// svmProtoTerms adjusts a base SVM profile for the protocol the cell
// runs: AURC propagates shared writes eagerly through automatic
// update; HLRC buffers them and pays diff creation/application at
// release time.
func svmProtoTerms(pf *profile, proto svm.Protocol, writeBytes float64) {
	switch proto {
	case svm.AURC:
		pf.auBytes += writeBytes
		pf.auStores += writeBytes / 4
	default: // HLRC, HLRCAU
		pf.diffWords += 2 * writeBytes / 4 // create + apply
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ---- load predictions ----------------------------------------------------

// TwinLoadRow is the twin's estimate for one (cell, class): offered
// utilization of the bottleneck server and the M/G/1 mean sojourn.
type TwinLoadRow struct {
	Config      string   `json:"config"`
	Nodes       int      `json:"nodes"`
	Offered     float64  `json:"offered"`
	Class       string   `json:"class"`
	Utilization float64  `json:"utilization"`
	MeanSojourn sim.Time `json:"mean_sojourn"`
}

// loadTwin is the machine a load cell's twin inputs are priced on.
type loadTwin struct {
	c      LoadCell
	cfg    machine.Config
	svc    workload.ServiceConfig // the driver's server-side configuration
	m      *twin.Model
	hops   int     // mean mesh hops, rounded
	copyBW float64 // memory-copy bandwidth (bytes/s)
	gap    float64 // per-stream mean interarrival at the offered load (s)
}

// copyT is the memory-copy time of bytes (s).
func (lt *loadTwin) copyT(bytes float64) float64 { return bytes / lt.copyBW }

// twinClass is one client class at the twin's server station, in
// seconds. srv1 and srv2 are the moments of the server CPU occupancy
// per request (the service charge plus the transport's ring copies).
type twinClass struct {
	name       string
	streams    float64
	gap        float64 // per-stream mean interarrival (s)
	srv1, srv2 float64 // server occupancy moments
	ca2        float64 // interarrival cv² (Poisson 1, gamma 0.5 and weibull 0.7 ~2)
	transit    float64 // round trip excluding server occupancy and waits (s)
}

// Predict estimates the load cell's per-class mean sojourn from a
// tandem of two queueing stations, mirroring the open-loop driver's
// structure (workload.Run):
//
//   - the server station: every request of every class crosses a shared
//     serial server (the service's loadConfigs entry declares how many
//     there are). Waits come from the aggregate M/G/1
//     Pollaczek-Khinchine formula over the per-request server occupancy
//     (ring copies plus the modeled service charge).
//   - the stream station: a stream issues its requests serially, so the
//     stream itself is a queue whose service time is the whole round
//     trip (transit + server occupancy + server wait + client cost).
//     Waits use the Kingman G/G/1 approximation with the class's
//     interarrival burstiness.
//
// The driver is open-loop over a finite trace: a saturated station does
// not diverge, it accumulates backlog across the arrival horizon T =
// Requests x gap. When either station's utilization exceeds one the
// queueing waits are replaced by the finite-horizon backlog term
// (rho-1) x T/2 — the average wait when the queue grows linearly over
// the run. Utilization reports the bottleneck rho either way.
//
// It needs no Predictor: a load cell's twin inputs are its service's
// loadConfigs entry and the machine configuration alone.
func (c LoadCell) Predict() ([]TwinLoadRow, error) {
	spec, svc, err := c.spec()
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(c.Nodes)
	m := twin.New(cfg)
	p := c.Params
	lt := &loadTwin{c: c, cfg: cfg, svc: svc.serviceConfig(c), m: m,
		hops:   int(math.Round(m.MeanHops())),
		copyBW: cfg.Cost.MemCopyBandwidth,
		gap:    float64(p.BaseInterarrival.Seconds()) / c.Offered,
	}
	servers, classes := svc.twin(lt, spec)

	// Server-station aggregates: utilization and P-K load per server.
	var srvRho, srvLambdaS2 float64
	for _, cl := range classes {
		rate := cl.streams / cl.gap / servers
		srvRho += rate * cl.srv1
		srvLambdaS2 += rate * cl.srv2
	}
	srvWait := 0.0
	if !svc.sharing && srvRho < 1 {
		srvWait = srvLambdaS2 / (2 * (1 - srvRho))
	}

	rows := make([]TwinLoadRow, 0, len(classes))
	for _, cl := range classes {
		// Stream station: the stream issues serial round trips against
		// the class gap, so the round trip itself is its service time.
		rt := cl.transit + cl.srv1 + srvWait
		strRho := rt / cl.gap
		rho := strRho
		if srvRho > rho {
			rho = srvRho
		}
		var sojourn float64
		switch {
		case rho >= 1:
			// Finite-horizon backlog: the open-loop driver does not
			// diverge, it accumulates queue for the whole arrival
			// horizon, so the average request waits half the final
			// backlog.
			horizon := float64(p.Requests) * cl.gap
			sojourn = (rho-1)*horizon/2 + rt
		case svc.sharing:
			// Processor sharing stretches every resident round trip by
			// the server's background utilization; no stream queue on
			// top (concurrent handlers absorb bursts).
			sojourn = rt / (1 - srvRho)
		default:
			// M/G/1-style stream wait, derated (x 1/2) for the short
			// finite trace that never reaches the steady-state tail;
			// ca2 carries the interarrival burstiness.
			sojourn = cl.ca2*strRho*rt/(4*(1-strRho)) + rt
		}
		rows = append(rows, TwinLoadRow{
			Config: c.Config, Nodes: c.Nodes, Offered: c.Offered, Class: cl.name,
			Utilization: round3(rho),
			MeanSojourn: sim.Time(sojourn * 1e9),
		})
	}
	return rows, nil
}
