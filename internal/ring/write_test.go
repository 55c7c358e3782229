package ring

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// The DU write oracle: seeded random programs run once with the stepped
// Ring.Write and vmmc.Import.Send, and once with the blocking loops
// they stand for (refWrite and refSend below), in which every flush is
// a Sleep and every DU request slot wait a Cond.Wait on the process.
// Node 0 writes messages of random sizes into a DU ring to node 1,
// whose reader drains them with pauses, so the writer stalls for
// credit; a second process on node 0 sends raw DU transfers to node 2
// at once, contending for the NIC's request slots; handlers steal time
// from node 0. The DU queue depth varies, up to past the position
// rotation's drain, whose runs write enough small messages to wrap it. Both runs must give the same trace, breakdowns,
// counters, bytes and fn events, and the same number of wakeups and fn
// events dispatched, with fewer process handoffs in the stepped run.

// refSend is the blocking Send: per page-split piece, the initiation
// charge, a flush and a SendDU that waits for a request slot.
func refSend(nd *machine.Node, imp *vmmc.Import, p *sim.Proc, src memory.Addr, off, size int, opts vmmc.SendOpts) {
	cost := nd.M.Cfg.Cost
	tr := nd.M.E.Tracer()
	if tr != nil && !opts.Internal {
		tr.Record(int64(nd.M.E.Now()), trace.KMsgSend, int32(nd.ID), int64(imp.Export().Node().ID), int64(size))
	}
	if nd.M.Cfg.SyscallPerSend && !opts.Internal {
		nd.CPUFor(p).ChargeOverhead(cost.SyscallCost)
		nd.Acct.Counters.Syscalls++
		if tr != nil {
			tr.Record(int64(nd.M.E.Now()), trace.KSyscall, int32(nd.ID), int64(size), 0)
		}
	}
	for size > 0 {
		chunk := size
		if max := memory.PageSize - src.Offset(); chunk > max {
			chunk = max
		}
		dst := imp.Proxy + memory.Addr(off)
		if max := memory.PageSize - dst.Offset(); chunk > max {
			chunk = max
		}
		last := chunk == size
		nd.CPUFor(p).ChargeTo(stats.Comm, cost.SendOverheadDU)
		nd.CPUFor(p).Flush(p)
		nd.NIC.SendDU(p, src, dst, chunk, opts.Notify && last, last && !opts.Internal)
		src += memory.Addr(chunk)
		off += chunk
		size -= chunk
	}
}

// refStalls counts the times refWrite ran out of credit.
var refStalls int

// refWrite is the blocking DU-mode Write over refSend.
func refWrite(r *Ring, p *sim.Proc, data []byte) {
	nd := r.sndEP.Node
	publish := func(final bool) {
		slot := r.published % ctlWords
		if slot == 0 && r.published > 0 && nd.NIC.Config().DUQueueDepth >= ctlWords {
			nd.NIC.WaitDUIdle(p)
		}
		r.published++
		ctl := r.mirror + memory.Addr(r.ctlOffset()) + memory.Addr(8*slot)
		nd.Mem.WriteUint64(p, ctl, r.writePos)
		refSend(nd, r.dataImp, p, ctl, r.ctlOffset(), 8,
			vmmc.SendOpts{Notify: r.cfg.Notify && final, Internal: !final})
	}
	for len(data) > 0 {
		r.refreshCredit(p)
		if r.space() == 0 {
			refStalls++
			publish(false)
			var seen int64
			for r.space() == 0 {
				seen = r.creditExp.WaitUpdate(p, seen)
				r.refreshCredit(p)
			}
		}
		off := int(r.writePos) % r.size
		chunk := min(len(data), r.space(), r.size-off)
		nd.Mem.Write(p, r.mirror+memory.Addr(off), data[:chunk])
		refSend(nd, r.dataImp, p, r.mirror+memory.Addr(off), off, chunk, vmmc.SendOpts{Internal: true})
		r.writePos += uint64(chunk)
		data = data[chunk:]
	}
	publish(true)
}

// writeImpl is the Write and Send a DU write scenario runs.
type writeImpl struct {
	write func(r *Ring, p *sim.Proc, data []byte)
	send  func(nd *machine.Node, imp *vmmc.Import, p *sim.Proc, src memory.Addr, off, size int, opts vmmc.SendOpts)
}

// writeOutcome is everything a DU write scenario leaves observable.
type writeOutcome struct {
	end       sim.Time
	events    []trace.Event
	breakdown [3][stats.NumCategories]sim.Time
	counters  [3]stats.Counters
	got, raw  []byte
	census    sim.Census
}

// runWriteScenario plays seed's random DU write program with impl.
func runWriteScenario(seed int64, impl writeImpl) writeOutcome {
	r := rand.New(rand.NewSource(seed))
	cfg := machine.DefaultConfig(3)
	cfg.Trace = trace.NewRecorder(trace.Options{})
	cfg.NIC.DUQueueDepth = []int{1, 2, 4, ctlWords + 1}[r.Intn(4)]
	cfg.SyscallPerSend = r.Intn(4) == 0
	m := machine.New(cfg)
	defer m.Close()
	s := vmmc.NewSystem(m)
	rg := New(s.EP(0), s.EP(1), Config{Bytes: 4096 * (1 + r.Intn(3)), Mode: DU, Notify: r.Intn(2) == 0})
	n0 := m.Nodes[0]

	// The raw sender's buffer: node 2 exports, node 0 imports.
	var imp *vmmc.Import
	var ex *vmmc.Export
	m.RunParallel("setup", func(nd *machine.Node, p *sim.Proc) {
		if nd.ID == 2 {
			ex = s.EP(2).Export(p, 3)
		}
	})
	m.RunParallel("setup2", func(nd *machine.Node, p *sim.Proc) {
		if nd.ID == 0 {
			imp = s.EP(0).Import(p, ex)
		}
	})
	rawSrc := n0.Mem.Alloc(3)
	raw := make([]byte, 3*memory.PageSize)
	r.Read(raw)
	n0.Mem.Write(nil, rawSrc, raw)

	const horizon = 2 * sim.Millisecond
	start := m.E.Now()
	for i := 0; i < 10; i++ {
		steal := sim.Time(100 + r.Intn(5000))
		m.E.At(start+sim.Time(r.Int63n(int64(horizon))), func() {
			n0.SpawnHandler("irq", func(p *sim.Proc, c *machine.CPU) {
				c.ChargeOverhead(steal)
				c.Flush(p)
			})
		})
	}

	var msgs [][]byte
	var want []byte
	n, small := 5+r.Intn(20), 3
	if cfg.NIC.DUQueueDepth > ctlWords {
		// Enough position updates to wrap the staging rotation.
		n, small = ctlWords+r.Intn(100), 1
	}
	for ; n > 0; n-- {
		msg := make([]byte, 1+r.Intn(3*rg.Size()))
		if r.Intn(small) == 0 {
			msg = msg[:min(len(msg), 1+r.Intn(64))]
		}
		r.Read(msg)
		msgs = append(msgs, msg)
		want = append(want, msg...)
	}
	var out writeOutcome
	out.got = make([]byte, len(want))
	rawSends := r.Intn(30)
	m.RunParallel("write", func(nd *machine.Node, p *sim.Proc) {
		wr := rand.New(rand.NewSource(seed*31 + int64(nd.ID)))
		switch nd.ID {
		case 0:
			if rawSends > 0 {
				nd.SpawnHandler("raw", func(p *sim.Proc, c *machine.CPU) {
					for i := 0; i < rawSends; i++ {
						off := wr.Intn(3 * memory.PageSize)
						size := 1 + wr.Intn(min(3*memory.PageSize-off, 6000))
						impl.send(nd, imp, p, rawSrc+memory.Addr(wr.Intn(3*memory.PageSize-size+1)), off, size,
							vmmc.SendOpts{Notify: wr.Intn(4) == 0, Internal: wr.Intn(4) == 0})
						c.Charge(sim.Time(wr.Intn(3000)))
					}
				})
			}
			for _, msg := range msgs {
				impl.write(rg, p, msg)
				nd.CPU.Charge(sim.Time(wr.Intn(2000)))
			}
		case 1:
			for got := 0; got < len(want); {
				got += rg.Read(p, out.got[got:got+min(len(want)-got, 1+wr.Intn(5000))])
				if wr.Intn(3) == 0 {
					nd.CPU.Flush(p)
					p.Sleep(sim.Time(wr.Intn(20000)))
				}
			}
		}
	})
	if !bytes.Equal(out.got, want) {
		panic(fmt.Sprintf("seed %d: the ring delivered other bytes than were written", seed))
	}
	out.raw = make([]byte, 3*memory.PageSize)
	m.Nodes[2].Mem.Read(nil, ex.Base, out.raw)
	out.end = m.E.Now()
	out.events = cfg.Trace.Events()
	out.census = m.E.Census()
	for i, nd := range m.Nodes {
		out.breakdown[i] = nd.Acct.Breakdown
		out.counters[i] = nd.Acct.Counters
	}
	return out
}

func TestWriteMatchesBlockingLoop(t *testing.T) {
	ref := writeImpl{write: refWrite, send: refSend}
	stepped := writeImpl{
		write: (*Ring).Write,
		send: func(_ *machine.Node, imp *vmmc.Import, p *sim.Proc, src memory.Addr, off, size int, opts vmmc.SendOpts) {
			imp.Send(p, src, off, size, opts)
		},
	}
	var steps uint64
	refStalls = 0
	for seed := int64(1); seed <= 30; seed++ {
		want := runWriteScenario(seed, ref)
		got := runWriteScenario(seed, stepped)
		if len(got.events) != len(want.events) {
			t.Fatalf("seed %d: %d trace events, the reference has %d", seed, len(got.events), len(want.events))
		}
		for i := range got.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("seed %d: trace event %d is %+v, the reference has %+v", seed, i, got.events[i], want.events[i])
			}
		}
		total := func(c sim.Census) uint64 { return c.Handoffs + c.SelfWakeups + c.FnEvents + c.Steps + c.Skips }
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"end time", got.end, want.end},
			{"CPU breakdown", got.breakdown, want.breakdown},
			{"counters", got.counters, want.counters},
			{"raw bytes", got.raw, want.raw},
			{"fn events", got.census.FnEvents, want.census.FnEvents},
			{"dispatched", total(got.census), total(want.census)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ:\n got %v\nwant %v", seed, c.what, c.got, c.want)
			}
		}
		if got.census.Handoffs >= want.census.Handoffs {
			t.Fatalf("seed %d: %d handoffs stepped, %d blocking: want fewer", seed, got.census.Handoffs, want.census.Handoffs)
		}
		steps += got.census.Steps
	}
	if refStalls == 0 || steps == 0 {
		t.Fatalf("%d credit stalls, %d step wakeups: want both > 0", refStalls, steps)
	}
	t.Logf("%d credit stalls, %d step wakeups", refStalls, steps)
}

// TestWriteAllocationFree asserts a DU Write takes its run from the
// ring's freelist and its transfers' steps allocate nothing, credit
// stalls included.
func TestWriteAllocationFree(t *testing.T) {
	s, r := newPair(t, Config{Bytes: 4096, Mode: DU})
	m := s.M
	data := make([]byte, 3000)
	buf := make([]byte, len(data))
	resume := sim.NewCond(m.E)
	m.E.Spawn("writer", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			r.Write(p, data)
		}
	})
	m.E.Spawn("reader", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			r.ReadFull(p, buf)
		}
	})
	m.E.Run()
	avg := testing.AllocsPerRun(50, func() {
		resume.Broadcast()
		m.E.Run()
	})
	if avg != 0 {
		t.Fatalf("a DU Write allocates %.1f objects, want 0", avg)
	}
	if m.E.Census().Steps == 0 {
		t.Fatalf("the writer never stepped: census %+v", m.E.Census())
	}
}
