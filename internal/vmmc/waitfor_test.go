package vmmc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// waitOutcome is everything a wait scenario leaves observable.
type waitOutcome struct {
	end       sim.Time
	events    []trace.Event
	breakdown [2][stats.NumCategories]sim.Time
	counters  [2]stats.Counters
	log       []string
	census    sim.Census
}

// runWaitScenario plays seed's random program: node 0 sends counter
// words and unrelated data into node 1's export at random instants,
// while one or two processes on node 1 wait, with wait, for the counter
// to reach each of their targets in turn. Handlers steal time from
// node 1 at random instants, so flushes before waits carry stolen time.
func runWaitScenario(t *testing.T, seed int64, wait func(ex *Export, p *sim.Proc, seen int64, ready func(*sim.Proc) bool) int64) waitOutcome {
	r := rand.New(rand.NewSource(seed))
	rec := trace.NewRecorder(trace.Options{})
	s, ex, imp := twoNodes(t, func(c *machine.Config) { c.Trace = rec })
	m := s.M
	n0, n1 := m.Nodes[0], m.Nodes[1]
	src := n0.Mem.Alloc(1)
	var out waitOutcome
	record := func(format string, args ...any) {
		out.log = append(out.log, fmt.Sprintf("t=%d blocked=%d ", m.E.Now(), m.E.Blocked())+fmt.Sprintf(format, args...))
	}
	start := m.E.Now()
	const horizon = 300 * sim.Microsecond
	for i := 0; i < 6; i++ {
		steal := sim.Time(100 + r.Intn(4000))
		m.E.At(start+sim.Time(r.Int63n(int64(horizon))), func() {
			n1.SpawnHandler("irq", func(p *sim.Proc, c *machine.CPU) {
				c.ChargeOverhead(steal)
				c.Flush(p)
			})
		})
	}
	sends := 20 + r.Intn(20)
	waiters := 1 + r.Intn(2)
	waiter := func(id int64, p *sim.Proc, c *machine.CPU) {
		wr := rand.New(rand.NewSource(seed*17 + id))
		target := uint32(0)
		ready := func(p *sim.Proc) bool {
			c.Charge(n1.M.Cfg.Cost.LoadCost)
			return n1.Mem.ReadUint32(p, ex.Base) >= target
		}
		// Some waits go on from the count the last one saw, as a
		// persistent poller does; the rest start afresh.
		seen := int64(-1)
		for target < uint32(sends) {
			target = min(target+uint32(1+wr.Intn(4)), uint32(sends))
			if wr.Intn(2) == 0 {
				seen = -1
			}
			seen = wait(ex, p, seen, ready)
			record("waiter %d reached %d, seen %d", id, target, seen)
			c.Charge(sim.Time(wr.Intn(3000)))
			if wr.Intn(3) == 0 {
				c.Flush(p)
				p.Sleep(sim.Time(wr.Intn(4000)))
			}
		}
	}
	m.RunParallel("wait", func(nd *machine.Node, p *sim.Proc) {
		if nd == n1 {
			if waiters == 2 {
				nd.SpawnHandler("waiter2", func(p *sim.Proc, c *machine.CPU) { waiter(2, p, c) })
			}
			waiter(1, p, nd.CPU)
			return
		}
		c := nd.CPU
		for i := 1; i <= sends; i++ {
			c.Charge(sim.Time(r.Intn(5000)))
			c.Flush(p)
			if r.Intn(3) == 0 {
				// Unrelated data: a delivery that leaves the counter be.
				imp.Send(p, src, 64+4*r.Intn(100), 4+r.Intn(300), SendOpts{})
			}
			n0.Mem.WriteUint32(p, src, uint32(i))
			imp.Send(p, src, 0, 4, SendOpts{})
			s.EP(0).WaitSendsDone(p)
		}
	})
	out.end = m.E.Now()
	out.events = rec.Events()
	out.census = m.E.Census()
	for i, nd := range m.Nodes {
		out.breakdown[i] = nd.Acct.Breakdown
		out.counters[i] = nd.Acct.Counters
	}
	return out
}

// waitLoop is the reference: the WaitUpdate loop WaitFor stands for.
func waitLoop(ex *Export, p *sim.Proc, seen int64, ready func(*sim.Proc) bool) int64 {
	for !ready(p) {
		seen = ex.WaitUpdate(p, seen)
	}
	return seen
}

// TestWaitForMatchesWaitUpdateLoop runs random programs with WaitFor
// and with the WaitUpdate loop: the trace, both nodes' breakdowns and
// counters, the end time, the fn events and every waiter's (t,
// Blocked()) log must be identical, and the stepped run must take
// fewer process handoffs.
func TestWaitForMatchesWaitUpdateLoop(t *testing.T) {
	var steps uint64
	for seed := int64(1); seed <= 30; seed++ {
		want := runWaitScenario(t, seed, waitLoop)
		got := runWaitScenario(t, seed, (*Export).WaitFor)
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"trace events", got.events, want.events},
			{"log", got.log, want.log},
			{"end time", got.end, want.end},
			{"CPU breakdown", got.breakdown, want.breakdown},
			{"counters", got.counters, want.counters},
			{"fn events", got.census.FnEvents, want.census.FnEvents},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ:\n got %v\nwant %v", seed, c.what, c.got, c.want)
			}
		}
		if got.census.Handoffs >= want.census.Handoffs {
			t.Fatalf("seed %d: %d handoffs with WaitFor, %d with the loop: want fewer", seed,
				got.census.Handoffs, want.census.Handoffs)
		}
		steps += got.census.Steps
	}
	t.Logf("%d step wakeups", steps)
}

// TestWaitForAllocationFree asserts a WaitFor call takes its poll from
// the endpoint's freelist and its steps allocate nothing.
func TestWaitForAllocationFree(t *testing.T) {
	s, ex, imp := twoNodes(t, nil)
	m := s.M
	n1 := m.Nodes[1]
	src := m.Nodes[0].Mem.Alloc(1)
	target := uint32(0)
	ready := func(p *sim.Proc) bool { return n1.Mem.ReadUint32(p, ex.Base) >= target }
	resume := sim.NewCond(m.E)
	m.E.Spawn("waiter", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			target += 3
			ex.WaitFor(p, -1, ready)
		}
	})
	count := uint32(0)
	m.E.Spawn("sender", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			for i := 0; i < 3; i++ {
				count++
				m.Nodes[0].Mem.WriteUint32(p, src, count)
				imp.Send(p, src, 0, 4, SendOpts{})
				s.EP(0).WaitSendsDone(p)
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	m.E.Run()
	avg := testing.AllocsPerRun(50, func() {
		resume.Broadcast()
		m.E.Run()
	})
	if avg != 0 {
		t.Fatalf("WaitFor allocates %.1f objects per call, want 0", avg)
	}
	if m.E.Census().Steps == 0 || target != count {
		t.Fatalf("census %+v, target %d, count %d: want steps and the waiter caught up", m.E.Census(), target, count)
	}
}
