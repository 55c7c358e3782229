package machine

import (
	"fmt"
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

// storeWord is one word of a test word program: compute charged
// before it, an optional aligned load it XORs in, its store, and
// compute charged after the store.
type storeWord struct {
	pre, post sim.Time
	load      memory.Addr // 0: none
	addr      memory.Addr
	v         uint64
}

// wordProg is a test WordSource over a fixed program of size-byte
// words, in the shape of Radix-SVM's permutation: each word's post
// compute is charged when the next word is made, and in a step it
// stops before a load that would fault.
type wordProg struct {
	nd    *Node
	p     *sim.Proc
	size  int
	words []storeWord
	i     int
}

// load is the program's load of one word at addr.
func (w *wordProg) load(p *sim.Proc, addr memory.Addr) uint64 {
	if w.size == 8 {
		return w.nd.LoadUint64(p, addr)
	}
	return uint64(w.nd.LoadUint32(p, addr))
}

func (w *wordProg) NextWord(inline bool) (memory.Addr, uint64, bool) {
	if inline && (w.i == len(w.words) || (w.words[w.i].load != 0 && !w.nd.Loadable(w.words[w.i].load))) {
		return 0, 0, false
	}
	cpu := w.nd.CPUFor(w.p)
	if w.i > 0 {
		cpu.Charge(w.words[w.i-1].post)
	}
	if w.i == len(w.words) {
		return 0, 0, false
	}
	x := w.words[w.i]
	w.i++
	cpu.Charge(x.pre)
	v := x.v
	if x.load != 0 {
		v ^= w.load(w.p, x.load)
	}
	return x.addr, v, true
}

// refStoreWords is the reference word run: the scalar loop of
// StoreUint32 and LoadUint32 calls, or StoreUint64 and LoadUint64
// calls, a word program stands for.
func refStoreWords(nd *Node, p *sim.Proc, w *wordProg) {
	cpu := nd.CPUFor(p)
	for _, x := range w.words {
		cpu.Charge(x.pre)
		v := x.v
		if x.load != 0 {
			v ^= w.load(p, x.load)
		}
		if w.size == 8 {
			nd.StoreUint64(p, x.addr, v)
		} else {
			nd.StoreUint32(p, x.addr, uint32(v))
		}
		cpu.Charge(x.post)
	}
}

// storeImpl is the implementation a store scenario runs: byte runs
// through bytes, or, when words is set, word programs through words.
type storeImpl struct {
	bytes func(nd *Node, p *sim.Proc, addr memory.Addr, data []byte)
	words func(nd *Node, p *sim.Proc, w *wordProg)
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

// runStoreScenario plays seed's random store program on a 2-node
// machine, traced or not, node 0 storing into a 4-page region
// whose pages are AU-bound to node 1 (one of them sometimes not), with
// impl performing each store. The NIC's AU word is 4 or 8 bytes and
// its combine limit 16, 24 or 256 bytes, so stored windows cross the
// limit and end in partial words. The byte program mixes runs of random length and offset,
// many crossing pages. The word program mixes aligned and unaligned
// words (some crossing pages), loads from the region, and compute
// before and after each store. Both have a tiny FIFO threshold on some
// seeds, so flow control stalls mid-stream; handlers that steal time
// from the writers; pages made read-only or inaccessible at random
// instants and restored by the fault handler; and, on some seeds, a
// second process storing on node 0 at once.
func runStoreScenario(seed int64, traced bool, impl storeImpl) storeOutcome {
	r := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig(2)
	if traced {
		cfg.Trace = trace.NewRecorder(trace.Options{})
	}
	cfg.NIC.Combining = r.Intn(3) != 0
	cfg.NIC.CombineLimit = []int{16, 24, 256}[r.Intn(3)]
	cfg.NIC.AUWordBytes = 4 << r.Intn(2)
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
		prot := memory.Prot(r.Intn(2)) // ProtNone or ProtRead
		m.E.At(sim.Time(r.Int63n(int64(horizon))), func() { n0.Mem.SetProt(vpn, prot) })
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
			if impl.words != nil {
				impl.words(n0, p, randomWords(wr, n0, p, src))
			} else {
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
				impl.bytes(n0, p, src+memory.Addr(off), data)
			}
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

	out.collect(m, src, dst, storePages)
	return out
}

// collect records what a store scenario on m left observable, with the
// region of pages pages at src on node 0 and its copy at dst on node 1.
func (out *storeOutcome) collect(m *Machine, src, dst memory.Addr, pages int) {
	out.end = m.E.Now()
	if m.Cfg.Trace != nil {
		out.events = m.Cfg.Trace.Events()
	}
	out.census = m.E.Census()
	for i, nd := range m.Nodes {
		out.breakdown[i] = nd.Acct.Breakdown
		out.counters[i] = nd.Acct.Counters
	}
	n0, n1 := m.Nodes[0], m.Nodes[1]
	for i := 0; i < pages; i++ {
		n0.Mem.SetProt(src.VPN()+i, memory.ProtReadWrite)
	}
	out.src = make([]byte, pages*memory.PageSize)
	n0.Mem.Read(nil, src, out.src)
	out.dst = make([]byte, pages*memory.PageSize)
	n1.Mem.Read(nil, dst, out.dst)
}

// TestStoreBytesMatchesReference runs random store programs with
// StoreBytes and with the per-word reference loop. The trace event
// sequence, both nodes' CPU breakdown and counters (NIC counters
// included), and the memory bytes of both sides must be identical.
func TestStoreBytesMatchesReference(t *testing.T) {
	checkStoreRuns(t, storeImpl{bytes: refStoreBytes}, storeImpl{bytes: (*Node).StoreBytes})
}

// TestStoreWordsMatchesReference is the same oracle for word runs:
// random programs of 4- and 8-byte words run through StoreWords and
// through the scalar StoreUint32/LoadUint32 or StoreUint64/LoadUint64
// loop.
func TestStoreWordsMatchesReference(t *testing.T) {
	checkStoreRuns(t, storeImpl{words: refStoreWords},
		storeImpl{words: func(nd *Node, p *sim.Proc, w *wordProg) { nd.StoreWords(p, w.size, w) }})
}

// randomWords draws a program of up to 60 words, all 4 or all 8 bytes,
// storing into the storePages-page region at base: mostly aligned
// words, some unaligned (a few crossing a page boundary), half of them
// loading an aligned word of the region first.
func randomWords(wr *rand.Rand, nd *Node, p *sim.Proc, base memory.Addr) *wordProg {
	size := 4 << wr.Intn(2)
	w := &wordProg{nd: nd, p: p, size: size}
	for n := 1 + wr.Intn(60); n > 0; n-- {
		x := storeWord{
			pre:  sim.Time(wr.Intn(4) * wr.Intn(300)),
			post: sim.Time(wr.Intn(2) * wr.Intn(500)),
			v:    wr.Uint64(),
		}
		off := size * wr.Intn(storePages*memory.PageSize/size)
		switch wr.Intn(8) {
		case 0:
			off = min(off+1+wr.Intn(size-1), storePages*memory.PageSize-size)
		case 1:
			off = memory.PageSize*(1+wr.Intn(storePages-1)) - 1 - wr.Intn(size-1)
		}
		x.addr = base + memory.Addr(off)
		if wr.Intn(2) == 0 {
			x.load = base + memory.Addr(size*wr.Intn(storePages*memory.PageSize/size))
		}
		w.words = append(w.words, x)
	}
	return w
}

// checkStoreRuns compares seeds 1..36 run with impl against ref,
// traced and untraced.
func checkStoreRuns(t *testing.T, ref, impl storeImpl) {
	t.Helper()
	var steps uint64
	var stalls int64
	faults := 0
	for seed := int64(1); seed <= 36; seed++ {
		for _, traced := range []bool{true, false} {
			want := runStoreScenario(seed, traced, ref)
			got := runStoreScenario(seed, traced, impl)
			if d := diffOutcomes(got, want); d != "" {
				t.Fatalf("seed %d, traced %v: %s", seed, traced, d)
			}
			steps += got.census.Steps
			stalls += got.counters[0].FlowStalls
			faults += got.faults
		}
	}
	// The mix must stream, stall and fault.
	if steps == 0 || stalls == 0 || faults == 0 {
		t.Fatalf("%d step wakeups, %d flow stalls, %d faults; want all > 0", steps, stalls, faults)
	}
	t.Logf("%d step wakeups, %d flow stalls, %d faults", steps, stalls, faults)
}

// diffOutcomes describes the first difference between two store
// outcomes, or returns "" when they are the same.
func diffOutcomes(got, want storeOutcome) string {
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("%d trace events, the reference has %d", len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			return fmt.Sprintf("trace event %d is %+v, the reference has %+v", i, got.events[i], want.events[i])
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
			return fmt.Sprintf("%s differ:\n got %v\nwant %v", c.what, c.got, c.want)
		}
	}
	return ""
}

// runGuardCase plays one 96-byte run, twelve 8-byte words, from
// offset 0 of an AU-bound page on a traced 2-node machine, with impl
// storing it. The writer is a handler, so the flow-control interrupt
// steals its time from the application, not from the writer, whose
// flushes stay before every third word (MaxAccum 1 µs, 450 ns per AU
// store). Its uncombined packets reach the FIFO 1.5 µs after their
// stores. The link drains one 24-byte packet per 2.4 µs and the FIFO
// stalls stores above 48 bytes, so the first three packets, arriving
// at 1.5 µs, stall stores until the FIFO has drained empty, several µs
// later. protectAt, when set, makes the page read-only at that
// instant; the fault handler then sleeps 3 µs before restoring it.
func runGuardCase(impl storeImpl, protectAt sim.Time) storeOutcome {
	cfg := DefaultConfig(2)
	cfg.Trace = trace.NewRecorder(trace.Options{})
	cfg.NIC.Combining = false
	cfg.NIC.LinkBandwidth = 10e6
	cfg.NIC.FIFOThresholdBytes = 48
	cfg.NIC.FIFOLowWaterBytes = 0
	m := New(cfg)
	defer m.Close()
	n0, n1 := m.Nodes[0], m.Nodes[1]
	dst := n1.Mem.Alloc(1)
	src := n0.Mem.Alloc(1)
	n1.NIC.SetIncoming(dst.VPN(), false)
	n0.NIC.MapOutgoing(src.VPN(), n1.ID, dst.VPN(), true, true, false)
	var out storeOutcome
	n0.Mem.Fault = func(p *sim.Proc, vpn int, write bool) {
		out.faults++
		p.Sleep(3 * sim.Microsecond)
		n0.Mem.SetProt(vpn, memory.ProtReadWrite)
	}
	if protectAt > 0 {
		m.E.At(protectAt, func() { n0.Mem.SetProt(src.VPN(), memory.ProtRead) })
	}
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte(i + 1)
	}
	m.RunParallel("store", func(nd *Node, p *sim.Proc) {
		if nd == n0 {
			nd.SpawnHandler("writer", func(p *sim.Proc, c *CPU) { impl.bytes(nd, p, src, data) })
		}
	})
	out.collect(m, src, dst, 1)
	return out
}

// checkGuardCase runs runGuardCase with StoreBytes and with the
// reference loop, which must agree, and returns the reference's
// outcome.
func checkGuardCase(t *testing.T, protectAt sim.Time) storeOutcome {
	t.Helper()
	want := runGuardCase(storeImpl{bytes: refStoreBytes}, protectAt)
	got := runGuardCase(storeImpl{bytes: (*Node).StoreBytes}, protectAt)
	if d := diffOutcomes(got, want); d != "" {
		t.Fatal(d)
	}
	if want.counters[0].FlowStalls == 0 {
		t.Fatal("the FIFO never stalled stores")
	}
	return want
}

// TestStoreBytesStallDuringFlushSleep: the stall the first three
// packets raise at 1.5 µs falls in the writer's second flush sleep
// (1.35–2.7 µs). The first word after that flush is stored unchecked,
// as the per-word loop stores it, but the second waits out the stall:
// a window stored in one pass must not run past it.
func TestStoreBytesStallDuringFlushSleep(t *testing.T) {
	checkGuardCase(t, 0)
}

// TestStoreBytesFaultMidRun: the page turns read-only at 1 µs, during
// the writer's first flush sleep, so the step hands the fourth word to
// the process, whose store faults at 1.35 µs. The stall raised at
// 1.5 µs, while the fault handler sleeps, must stop the fifth word: a
// window stored in one pass must not span a write that may fault.
func TestStoreBytesFaultMidRun(t *testing.T) {
	if out := checkGuardCase(t, sim.Microsecond); out.faults != 1 {
		t.Fatalf("%d faults, want 1", out.faults)
	}
}

// TestStoreBytesAllocationFree asserts streaming StoreBytes and
// StoreWords calls take their runs from the node's freelist: a cycle of
// a byte run, a 4-byte word run and an 8-byte word run on one machine
// allocates nothing once warm, although the runs make AU packets of
// different sizes from one packet pool.
func TestStoreBytesAllocationFree(t *testing.T) {
	m, _, _, dst := pair(t, nil)
	n0 := m.Nodes[0]
	au := n0.Mem.Alloc(1)
	n0.NIC.MapOutgoing(au.VPN(), m.Nodes[1].ID, dst.VPN(), true, true, false)
	data := make([]byte, 512)
	resume := sim.NewCond(m.E)
	m.E.Spawn("writer", func(p *sim.Proc) {
		var runs [2]*wordProg
		for k := range runs {
			size := 4 << k
			w := &wordProg{nd: n0, p: p, size: size}
			for i := 0; i < 128; i++ {
				w.words = append(w.words, storeWord{pre: 50, post: 20, load: au + memory.Addr(size*(i%64)),
					addr: au + memory.Addr(size*(127-i)%memory.PageSize), v: uint64(i)})
			}
			runs[k] = w
		}
		for {
			resume.Wait(p)
			n0.StoreBytes(p, au, data)
			for _, w := range runs {
				w.i = 0
				n0.StoreWords(p, w.size, w)
			}
		}
	})
	m.E.Run()
	avg := testing.AllocsPerRun(50, func() {
		resume.Signal()
		m.E.Run()
	})
	if avg != 0 {
		t.Fatalf("a store cycle allocates %.1f objects, want 0", avg)
	}
	if m.E.Census().Steps == 0 {
		t.Fatalf("the runs never streamed: census %+v", m.E.Census())
	}
}
