package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// refStoreBytes is the reference StoreBytes: the plain per-word store
// loop, in which every flush is a Sleep and the process runs each store
// itself.
func refStoreBytes(nd *Node, p *sim.Proc, addr memory.Addr, data []byte) {
	cost := nd.M.Cfg.Cost
	word := nd.NIC.Config().AUWordBytes
	for len(data) > 0 {
		n := memory.PageSize - addr.Offset()
		if n > len(data) {
			n = len(data)
		}
		cpu := nd.CPUFor(p)
		if ent, ok := nd.NIC.Outgoing(addr.VPN()); ok && ent.AUEnable {
			for off := 0; off < n; off += word {
				w := word
				if off+w > n {
					w = n - off
				}
				nd.NIC.WaitAUReady(p)
				if cpu.Pending() >= cpu.maxAccum {
					cpu.Flush(p)
				}
				cpu.Charge(cost.AUStoreCost)
				nd.Mem.Write(p, addr+memory.Addr(off), data[off:off+w])
			}
		} else {
			cpu.Charge(cost.CopyTime(n))
			nd.Mem.Write(p, addr, data[:n])
		}
		data = data[n:]
		addr += memory.Addr(n)
	}
}

// storeOutcome is everything a store scenario leaves observable.
type storeOutcome struct {
	end       sim.Time
	events    []trace.Event
	breakdown [2][stats.NumCategories]sim.Time
	counters  [2]stats.Counters
	src, dst  []byte
	census    sim.Census
	faults    int
}

const storePages = 4

// runStoreScenario plays seed's random store program on a traced
// 2-node machine, node 0 storing into a 4-page region whose pages are
// AU-bound to node 1 (one of them sometimes not), with store performing
// each store. The program mixes runs of random length and offset, many
// crossing pages; a tiny FIFO threshold on some seeds, so flow control
// stalls mid-stream; handlers that steal time from the writers; pages
// made read-only at random instants and restored by the fault handler;
// and, on some seeds, a second process streaming on node 0 at once.
func runStoreScenario(seed int64, store func(*Node, *sim.Proc, memory.Addr, []byte)) storeOutcome {
	r := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig(2)
	cfg.Trace = trace.NewRecorder(trace.Options{})
	cfg.NIC.Combining = r.Intn(3) != 0
	if r.Intn(2) == 0 {
		cfg.NIC.FIFOThresholdBytes = 32 + r.Intn(200)
		cfg.NIC.FIFOLowWaterBytes = r.Intn(cfg.NIC.FIFOThresholdBytes)
	}
	cfg.MaxAccum = []sim.Time{1 * sim.Microsecond, 400, 2500}[r.Intn(3)]
	m := New(cfg)
	defer m.Close()
	n0, n1 := m.Nodes[0], m.Nodes[1]

	dst := n1.Mem.Alloc(storePages)
	src := n0.Mem.Alloc(storePages)
	plain := -1
	if r.Intn(2) == 0 {
		plain = r.Intn(storePages)
	}
	for i := 0; i < storePages; i++ {
		n1.NIC.SetIncoming(dst.VPN()+i, false)
		if i != plain {
			n0.NIC.MapOutgoing(src.VPN()+i, n1.ID, dst.VPN()+i, true, r.Intn(4) != 0, false)
		}
	}

	var out storeOutcome
	n0.Mem.Fault = func(p *sim.Proc, vpn int, write bool) {
		out.faults++
		p.Sleep(sim.Time(1 + r.Intn(3000)))
		n0.Mem.SetProt(vpn, memory.ProtReadWrite)
	}
	const horizon = 400 * sim.Microsecond
	for i := 0; i < 12; i++ {
		vpn := src.VPN() + r.Intn(storePages)
		m.E.At(sim.Time(r.Int63n(int64(horizon))), func() { n0.Mem.SetProt(vpn, memory.ProtRead) })
	}
	for i := 0; i < 8; i++ {
		steal := sim.Time(100 + r.Intn(5000))
		m.E.At(sim.Time(r.Int63n(int64(horizon))), func() {
			n0.SpawnHandler("irq", func(p *sim.Proc, c *CPU) {
				c.ChargeOverhead(steal)
				c.Flush(p)
			})
		})
	}

	// writer plays stores into the region; its rng depends only on the
	// seed and the writer, so both implementations see the same program.
	writer := func(id int64, p *sim.Proc, c *CPU) {
		wr := rand.New(rand.NewSource(seed*31 + id))
		for i := 0; i < 10; i++ {
			off := wr.Intn(storePages * memory.PageSize)
			n := 1 + wr.Intn(300)
			if wr.Intn(2) == 0 {
				// A run crossing into the next page.
				off = memory.PageSize*(1+wr.Intn(storePages-1)) - 1 - wr.Intn(200)
				n = 1 + wr.Intn(700)
			}
			n = min(n, storePages*memory.PageSize-off)
			data := make([]byte, n)
			wr.Read(data)
			store(n0, p, src+memory.Addr(off), data)
			c.Charge(sim.Time(wr.Intn(2000)))
			if wr.Intn(3) == 0 {
				c.Flush(p)
				p.Sleep(sim.Time(wr.Intn(5000)))
			}
		}
	}
	m.RunParallel("store", func(nd *Node, p *sim.Proc) {
		if nd != n0 {
			return
		}
		if seed%3 == 0 {
			nd.SpawnHandler("writer2", func(p *sim.Proc, c *CPU) { writer(2, p, c) })
		}
		writer(1, p, nd.CPU)
	})

	out.end = m.E.Now()
	out.events = cfg.Trace.Events()
	out.census = m.E.Census()
	for i, nd := range m.Nodes {
		out.breakdown[i] = nd.Acct.Breakdown
		out.counters[i] = nd.Acct.Counters
	}
	out.src = make([]byte, storePages*memory.PageSize)
	n0.Mem.Read(nil, src, out.src)
	out.dst = make([]byte, storePages*memory.PageSize)
	n1.Mem.Read(nil, dst, out.dst)
	return out
}

// TestStoreBytesMatchesReference runs random store programs with
// StoreBytes and with the per-word reference loop. The trace event
// sequence, both nodes' CPU breakdown and counters (NIC counters
// included), and the memory bytes of both sides must be identical.
func TestStoreBytesMatchesReference(t *testing.T) {
	var steps uint64
	var stalls int64
	faults := 0
	for seed := int64(1); seed <= 36; seed++ {
		want := runStoreScenario(seed, refStoreBytes)
		got := runStoreScenario(seed, (*Node).StoreBytes)
		if len(got.events) != len(want.events) {
			t.Fatalf("seed %d: %d trace events, the reference has %d", seed, len(got.events), len(want.events))
		}
		for i := range got.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("seed %d: trace event %d is %+v, the reference has %+v", seed, i, got.events[i], want.events[i])
			}
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"end time", got.end, want.end},
			{"CPU breakdown", got.breakdown, want.breakdown},
			{"counters", got.counters, want.counters},
			{"stored bytes", got.src, want.src},
			{"received bytes", got.dst, want.dst},
			{"faults", got.faults, want.faults},
			{"fn events", got.census.FnEvents, want.census.FnEvents},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ:\n got %v\nwant %v", seed, c.what, c.got, c.want)
			}
		}
		steps += got.census.Steps
		stalls += got.counters[0].FlowStalls
		faults += got.faults
	}
	// The mix must stream, stall and fault.
	if steps == 0 || stalls == 0 || faults == 0 {
		t.Fatalf("%d step wakeups, %d flow stalls, %d faults; want all > 0", steps, stalls, faults)
	}
	t.Logf("%d step wakeups, %d flow stalls, %d faults", steps, stalls, faults)
}

// TestStoreBytesAllocationFree asserts a streaming StoreBytes call takes
// its run from the node's freelist: it allocates nothing.
func TestStoreBytesAllocationFree(t *testing.T) {
	m, _, _, dst := pair(t, nil)
	n0 := m.Nodes[0]
	au := n0.Mem.Alloc(1)
	n0.NIC.MapOutgoing(au.VPN(), m.Nodes[1].ID, dst.VPN(), true, true, false)
	data := make([]byte, 512)
	resume := sim.NewCond(m.E)
	m.E.Spawn("writer", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			n0.StoreBytes(p, au, data)
		}
	})
	m.E.Run()
	avg := testing.AllocsPerRun(50, func() {
		resume.Signal()
		m.E.Run()
	})
	if avg != 0 {
		t.Fatalf("StoreBytes allocates %.1f objects per call, want 0", avg)
	}
	if m.E.Census().Steps == 0 {
		t.Fatalf("StoreBytes never streamed: census %+v", m.E.Census())
	}
}
