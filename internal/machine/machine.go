package machine

import (
	"encoding/binary"
	"fmt"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// Config describes a SHRIMP system to build.
type Config struct {
	// Nodes is the number of compute nodes (1..Mesh.Width*Mesh.Height).
	Nodes int
	Mesh  mesh.Config
	NIC   nic.Config
	Cost  CostModel
	// SyscallPerSend charges a kernel trap on every message send,
	// emulating the kernel-level-DMA design of §4.3.
	SyscallPerSend bool
	// MaxAccum bounds unflushed CPU time before automatic-update stores
	// force a flush (keeps AU packet timing honest).
	MaxAccum sim.Time
	// Trace, when non-nil, is attached to the engine before any device
	// is constructed, so every layer caches it and emits trace events.
	// Nil (the default) keeps every hot path on its zero-cost nil-check
	// branch. Excluded from JSON so the harness's canonical cell
	// encoding (a pure-data description of a run) can marshal Config
	// directly.
	Trace *trace.Recorder `json:"-"`
}

// MaxNodes bounds a machine's size: 64x the paper's 16-node system.
// Every front end (CLI flags, cell specs, load cells, trace files,
// shrimpd requests) rejects a larger machine before building one.
const MaxNodes = 1024

// DefaultConfig returns an n-node SHRIMP system as built (AU enabled,
// combining on, 32 KB FIFO, DU queue depth 1, no kernel knobs). It
// panics unless 1 <= n <= MaxNodes.
func DefaultConfig(n int) Config {
	mc := mesh.DefaultConfig()
	// Shrink the mesh to fit small systems so hop counts stay sensible
	// for the speedup experiments.
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("machine: %d nodes outside 1..%d", n, MaxNodes))
	}
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	mc.Width, mc.Height = w, h
	return Config{
		Nodes:    n,
		Mesh:     mc,
		NIC:      nic.DefaultConfig(),
		Cost:     DefaultCostModel(),
		MaxAccum: 1 * sim.Microsecond,
	}
}

// MyrinetLikeConfig returns the §4.1 off-the-shelf comparison system.
func MyrinetLikeConfig(n int) Config {
	c := DefaultConfig(n)
	c.NIC = nic.MyrinetLikeConfig()
	c.Cost = MyrinetCostModel()
	return c
}

// Node is one compute node: CPU accounting, memory, memory bus, NIC.
type Node struct {
	ID   mesh.NodeID
	M    *Machine
	Mem  *memory.AddressSpace
	Bus  *sim.Resource
	NIC  *nic.NIC
	CPU  *CPU
	Acct *stats.Node

	notify func(p *sim.Proc, pkt *nic.Packet)
	runs   []*storeRun
}

// Machine is the whole system.
type Machine struct {
	E     *sim.Engine
	Net   *mesh.Network
	Nodes []*Node
	Cfg   Config
	Acct  *stats.Machine
}

// New builds and starts a machine: all nodes, NICs and the backplane.
func New(cfg Config) *Machine {
	if cfg.Nodes > cfg.Mesh.Width*cfg.Mesh.Height {
		panic(fmt.Sprintf("machine: %d nodes exceed %dx%d mesh",
			cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height))
	}
	if cfg.MaxAccum <= 0 {
		cfg.MaxAccum = 1 * sim.Microsecond
	}
	if cfg.NIC.InterruptStall <= 0 {
		cfg.NIC.InterruptStall = cfg.Cost.InterruptCost
	}
	e := sim.NewEngine()
	// The tracer must be attached before any device is built: mesh and
	// NIC construction cache e.Tracer() into their hot-path fields.
	e.SetTracer(cfg.Trace)
	m := &Machine{
		E:    e,
		Net:  mesh.New(e, cfg.Mesh),
		Cfg:  cfg,
		Acct: stats.NewMachine(cfg.Nodes),
	}
	// Attach inert sinks for unpopulated mesh positions.
	for i := cfg.Nodes; i < m.Net.Nodes(); i++ {
		m.Net.Attach(mesh.NodeID(i), func(*mesh.Packet) {})
	}
	for i := 0; i < cfg.Nodes; i++ {
		nd := &Node{
			ID:   mesh.NodeID(i),
			M:    m,
			Mem:  memory.NewAddressSpace(),
			Bus:  sim.NewResource(e),
			Acct: m.Acct.Nodes[i],
		}
		nd.CPU = &CPU{node: nd, acct: m.Acct.Nodes[i], maxAccum: cfg.MaxAccum}
		nd.NIC = nic.New(e, nd.ID, m.Net, nd.Mem, nd.Bus, nd.Acct, cfg.NIC)
		nd.NIC.RaiseInterrupt = nd.raiseInterrupt
		nd.Mem.Snoop = nd.NIC.Snoop
		nd.NIC.Start()
		m.Nodes = append(m.Nodes, nd)
	}
	return m
}

// Close terminates any unfinished app processes and returns each
// node's written pages to the shared page pool. Device engines are
// continuation state machines with no goroutines to unwind; they simply
// stop receiving events. The machine is unusable afterwards.
func (m *Machine) Close() {
	m.E.Shutdown()
	for _, nd := range m.Nodes {
		nd.Mem.Release()
	}
}

// RunParallel runs body once per node as the node's application process
// and executes the simulation until all of them finish. It returns the
// makespan (the virtual finish time of the slowest node). It may be
// called repeatedly for phased workloads.
func (m *Machine) RunParallel(name string, body func(nd *Node, p *sim.Proc)) sim.Time {
	start := m.E.Now()
	done := 0
	for _, nd := range m.Nodes {
		nd := nd
		m.E.Spawn(fmt.Sprintf("%s@%d", name, nd.ID), func(p *sim.Proc) {
			body(nd, p)
			nd.CPU.Flush(p)
			done++
		})
	}
	m.E.Run()
	if done != len(m.Nodes) {
		panic(fmt.Sprintf("machine: deadlock in %q at %v: %d of %d nodes finished, %d procs blocked: %v",
			name, m.E.Now(), done, len(m.Nodes), m.E.Blocked(), m.E.UnfinishedNames()))
	}
	return m.E.Now() - start
}

// BindCPU associates a process with an accounting context. Library code
// resolves contexts with Node.CPUFor. The binding rides on the process
// itself rather than a machine-wide map: CPUFor sits on the store/load
// hot path, where a map hash per memory operation is measurable.
func (m *Machine) BindCPU(p *sim.Proc, c *CPU) { p.SetContext(c) }

// CPUFor returns the accounting context for p: a bound handler context,
// or this node's application context. A nil p (setup time) also yields
// the application context.
func (nd *Node) CPUFor(p *sim.Proc) *CPU {
	if p != nil {
		if c, ok := p.Context().(*CPU); ok {
			return c
		}
	}
	return nd.CPU
}

// SpawnHandler runs body as a kernel/handler process on this node with
// its own accounting context that displaces the application.
func (nd *Node) SpawnHandler(name string, body func(p *sim.Proc, c *CPU)) {
	hc := nd.newHandlerCPU()
	pr := nd.M.E.Spawn(name, func(p *sim.Proc) {
		body(p, hc)
		hc.Flush(p)
	})
	nd.M.BindCPU(pr, hc)
}

// SetNotifyDispatch installs the user-level notification dispatcher for
// this node (the VMMC library layer).
func (nd *Node) SetNotifyDispatch(fn func(p *sim.Proc, pkt *nic.Packet)) {
	nd.notify = fn
}

// raiseInterrupt is the NIC's interrupt line. It never blocks: handler
// work runs in a freshly spawned kernel process and its cost is stolen
// from the application CPU.
func (nd *Node) raiseInterrupt(kind nic.InterruptKind, pkt *nic.Packet) {
	nd.Acct.Counters.Interrupts++
	if tr := nd.M.Cfg.Trace; tr != nil {
		tr.Record(int64(nd.M.E.Now()), trace.KInterrupt, int32(nd.ID), int64(kind), 0)
	}
	cost := nd.M.Cfg.Cost.InterruptCost
	switch kind {
	case nic.IntPerMessage:
		// The delivery-path stall in the NIC receive engine carries the
		// handler cost; nothing further to charge here.
	case nic.IntFlowControl:
		// Null handler: pure cost.
		nd.CPU.Steal(cost)
	case nic.IntNotification:
		// The handler runs after the NIC has recycled the packet into
		// its freelist, so it captures a detached clone, not the pooled
		// original.
		pkt = pkt.Clone()
		dispatch := nd.M.Cfg.Cost.NotifyDispatchCost
		nd.SpawnHandler(fmt.Sprintf("notify@%d", nd.ID), func(p *sim.Proc, c *CPU) {
			c.ChargeOverhead(cost + dispatch)
			c.Flush(p)
			if nd.notify != nil {
				nd.notify(p, pkt)
			}
		})
	}
}

// StoreUint32 performs an application store, paying the write-through
// cost and honoring flow control when the page is AU-bound.
func (nd *Node) StoreUint32(p *sim.Proc, addr memory.Addr, v uint32) {
	nd.chargeStore(p, addr)
	nd.Mem.WriteUint32(p, addr, v)
}

// StoreUint64 performs an application store of a 64-bit word, paying
// the write-through cost and honoring flow control on AU-bound pages.
func (nd *Node) StoreUint64(p *sim.Proc, addr memory.Addr, v uint64) {
	nd.chargeStore(p, addr)
	nd.Mem.WriteUint64(p, addr, v)
}

// chargeStore pays for one word store at addr before its write: on an
// AU-bound page, after waiting out flow control and flushing a full
// accumulator, the write-through cost; elsewhere a plain store's.
func (nd *Node) chargeStore(p *sim.Proc, addr memory.Addr) {
	cpu := nd.CPUFor(p)
	if ent, ok := nd.NIC.Outgoing(addr.VPN()); ok && ent.AUEnable {
		nd.NIC.WaitAUReady(p)
		if cpu.Pending() >= cpu.maxAccum {
			cpu.Flush(p)
		}
		cpu.Charge(nd.M.Cfg.Cost.AUStoreCost)
	} else {
		cpu.Charge(nd.M.Cfg.Cost.StoreCost)
	}
}

// StoreBytes performs an application store of a byte run (within or
// across pages). On AU-bound pages the CPU issues word-sized stores,
// checking flow control before each one, exactly as real code behind
// the snooped memory bus would; elsewhere it is a bulk copy.
//
// A streaming writer flushes every few words. Each flush parks the
// process in a step (Proc.Park) that stores the next window of words
// inline at the wakeup, wherever the calendar pops it, so the process
// is resumed only when the run ends or a store needs it: flow control
// is stalled, or the page is not read-write and its fault handler may
// park.
func (nd *Node) StoreBytes(p *sim.Proc, addr memory.Addr, data []byte) {
	r := nd.startRun(p, nd.NIC.Config().AUWordBytes)
	r.addr, r.data = addr, data
	r.finish()
}

// A WordSource generates the stores of a StoreWords run, one word at a
// time and in program order, from state it keeps itself.
type WordSource interface {
	// NextWord charges the compute that comes before the next store
	// (loads included) and returns that store: its address and value,
	// of which the run's word size takes the low bytes. ok false from
	// the process (inline false) ends the run, after any compute that
	// follows its last store. inline says NextWord runs in a Park
	// step, where nothing may block: before a load that would fault
	// (Node.Loadable) or at the run's end, it returns ok false with no
	// side effect, and the process calls it again.
	NextWord(inline bool) (addr memory.Addr, v uint64, ok bool)
}

// StoreWords performs the stores src yields, each of size bytes (4 or
// 8), exactly as StoreUint32 or StoreUint64 would, with src's compute
// charged in between. It streams like StoreBytes: after a flush, the
// step stores words until the next flush, and hands back to the
// process only on a flow-control stall, a store to a page that is not
// read-write, or a word src cannot make without the process.
func (nd *Node) StoreWords(p *sim.Proc, size int, src WordSource) {
	if size != 4 && size != 8 {
		panic(fmt.Sprintf("machine: %d-byte word run", size))
	}
	r := nd.startRun(p, size)
	r.src = src
	r.finish()
}

// Why storeRun.advance stopped.
const (
	runDone    = iota // no next chunk; inline, a word run's source may need the process for it
	runFlush          // a flush settled; sleep for the returned time
	runStalled        // flow control stalls the next word's store
	runFault          // the next store's page is not read-write (inline only)
)

// storeRun is one StoreBytes or StoreWords call in progress. It is per
// call, not per node, because several processes on a node may store at
// once; idle runs wait on the node's freelist, so a call allocates
// nothing. A word run stores each word as a chunk of its own.
type storeRun struct {
	nd   *Node
	p    *sim.Proc
	cpu  *CPU
	word int
	addr memory.Addr // next byte to store
	data []byte      // bytes left to store, from addr on
	// src, in a word run, makes the next chunk, staged in buf; nil in
	// a byte run.
	src WordSource
	buf [8]byte
	// n counts the bytes left in the current chunk (0: the next chunk
	// has not started), and au says whether that chunk's page is
	// AU-bound.
	n  int
	au bool
	// flushed says the next word's flow-control and flush checks are
	// done: it is stored right after a flush.
	flushed bool
	// step is the bound window method, made once per run object.
	step func() (sim.Time, sim.Verdict)
}

// startRun takes an idle run from the node's freelist, or makes one,
// and sets it to store for p in AU stores of word bytes.
func (nd *Node) startRun(p *sim.Proc, word int) *storeRun {
	var r *storeRun
	if n := len(nd.runs); n > 0 {
		r = nd.runs[n-1]
		nd.runs[n-1] = nil
		nd.runs = nd.runs[:n-1]
	} else {
		r = &storeRun{nd: nd}
		r.step = r.window
	}
	r.p, r.cpu, r.word = p, nd.CPUFor(p), word
	return r
}

// finish drives the run to its end on the process, which sleeps each
// flush with the window step and waits out each stall itself, then
// returns the run to the node's freelist.
func (r *storeRun) finish() {
	for {
		switch d, stop := r.advance(false); stop {
		case runFlush:
			r.p.Park(d, sim.Again, r.step)
		case runStalled:
			r.nd.NIC.WaitAUReady(r.p)
		default:
			nd := r.nd
			r.p, r.cpu, r.data, r.src = nil, nil, nil, nil
			nd.runs = append(nd.runs, r)
			return
		}
	}
}

// window is the flushing process's Park step: it stores the words
// after a flush, up to the next flush, and keeps the process parked
// only when the window ends in that flush.
func (r *storeRun) window() (sim.Time, sim.Verdict) {
	if d, stop := r.advance(true); stop == runFlush {
		return d, sim.Again
	}
	return 0, sim.Resume
}

// advance stores the run's words from where it stopped, in the order a
// store loop runs them — the flow-control check, the flush check, the
// charge, then the write and its snoop — until the run is done or must
// wait. It never blocks: the caller sleeps a flush and waits out a
// stall. inline says it runs as a wakeup step, where a fault handler
// could not park, so it also stops before a write to a page that is
// not read-write, and before a word its source cannot make inline; the
// process then goes on from there itself.
func (r *storeRun) advance(inline bool) (sim.Time, int) {
	nd, cpu := r.nd, r.cpu
	for {
		if r.n == 0 && !r.next(inline) {
			return 0, runDone
		}
		if !r.au {
			if inline && !r.writable() {
				return 0, runFault
			}
			if r.src != nil {
				cpu.Charge(nd.M.Cfg.Cost.StoreCost)
			} else {
				cpu.Charge(nd.M.Cfg.Cost.CopyTime(r.n))
			}
			r.store(r.n)
			continue
		}
		// Word-at-a-time write-through stores with per-store flow
		// control: every word is an uncached memory-bus write, which
		// is why deliberate update's DMA engine wins for bulk data
		// (§4.2).
		if !r.flushed {
			if nd.NIC.AUStalled() {
				return 0, runStalled
			}
			if cpu.Pending() >= cpu.maxAccum {
				if d := cpu.Settle(); d > 0 {
					r.flushed = true
					return d, runFlush
				}
			}
		}
		if inline && !r.writable() {
			return 0, runFault
		}
		r.flushed = false
		cost := nd.M.Cfg.Cost.AUStoreCost
		cpu.Charge(cost)
		w := min(r.word, r.n)
		// A byte run stores the whole window up to its next flush check
		// in one write and one snoop: in between, no simulated time
		// passes and no event runs, so only the charges the loop would
		// make come first. Two things would stop the loop early, so
		// they keep it per word: a stall raised while the flush slept,
		// which the first word after a flush does not check, and a
		// page whose write faults, as the fault handler may park.
		if r.src == nil && !nd.NIC.AUStalled() && r.writable() {
			for w < r.n && cpu.Pending() < cpu.maxAccum {
				cpu.Charge(cost)
				w += min(r.word, r.n-w)
			}
		}
		r.store(w)
	}
}

// next starts the run's next chunk: the rest of the current page in a
// byte run, the source's next word in a word run. It reports false when
// there is none, or, inline, when the source needs the process.
func (r *storeRun) next(inline bool) bool {
	if r.src != nil {
		addr, v, ok := r.src.NextWord(inline)
		if !ok {
			return false
		}
		binary.LittleEndian.PutUint64(r.buf[:], v)
		r.addr, r.data, r.n = addr, r.buf[:r.word], r.word
	} else {
		if len(r.data) == 0 {
			return false
		}
		r.n = min(memory.PageSize-r.addr.Offset(), len(r.data))
	}
	ent, ok := r.nd.NIC.Outgoing(r.addr.VPN())
	r.au = ok && ent.AUEnable
	return true
}

// store writes the run's next w bytes, all within the current chunk.
func (r *storeRun) store(w int) {
	r.nd.Mem.Write(r.p, r.addr, r.data[:w])
	r.addr += memory.Addr(w)
	r.data = r.data[w:]
	r.n -= w
}

// writable reports whether storing the current chunk's next byte, and
// a word's last one, proceeds without a fault.
func (r *storeRun) writable() bool {
	as, vpn := r.nd.Mem, r.addr.VPN()
	last := (r.addr + memory.Addr(r.n-1)).VPN()
	return as.Prot(vpn) == memory.ProtReadWrite && (last == vpn || as.Prot(last) == memory.ProtReadWrite)
}

// Loadable reports whether a load at addr proceeds without a fault: a
// WordSource's check before a load in a step.
func (nd *Node) Loadable(addr memory.Addr) bool {
	return nd.Mem.Prot(addr.VPN()) != memory.ProtNone
}

// LoadUint32 performs an application load.
func (nd *Node) LoadUint32(p *sim.Proc, addr memory.Addr) uint32 {
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	return nd.Mem.ReadUint32(p, addr)
}

// LoadUint64 performs an application load of a 64-bit word.
func (nd *Node) LoadUint64(p *sim.Proc, addr memory.Addr) uint64 {
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	return nd.Mem.ReadUint64(p, addr)
}
