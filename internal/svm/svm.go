// Package svm implements page-based shared virtual memory over VMMC in
// the three flavors the paper compares in Figure 4 (left):
//
//   - HLRC: home-based lazy release consistency with twins and diffs
//     propagated by explicit deliberate-update messages at release time
//     (Zhou/Iftode/Li, OSDI'96 — [47] in the paper).
//   - HLRC-AU: HLRC whose diff propagation rides the automatic-update
//     hardware: written pages are write-through bound to their home, so
//     diffs stream out as they are produced; twins and diff computation
//     remain (to derive write notices), which is why the paper finds
//     little benefit.
//   - AURC: automatic-update release consistency ([25]): no twins, no
//     diffs — written pages are AU-bound to their homes and every store
//     propagates eagerly; release is a fence plus notices.
//
// A shared region is replicated across nodes with per-page homes; page
// protection faults drive the protocols, exactly as VM hardware does on
// the real system. All data motion is real bytes through the simulated
// NIC and mesh, so applications compute verifiable results.
package svm

import (
	"fmt"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// Protocol selects the consistency implementation.
type Protocol int

const (
	// HLRC is home-based lazy release consistency with explicit diffs.
	HLRC Protocol = iota
	// HLRCAU is HLRC with diffs propagated by automatic update.
	HLRCAU
	// AURC is automatic-update release consistency (no diffs).
	AURC
)

func (pr Protocol) String() string {
	switch pr {
	case HLRC:
		return "HLRC"
	case HLRCAU:
		return "HLRC-AU"
	default:
		return "AURC"
	}
}

// MarshalJSON renders the protocol by name, for machine-readable
// experiment output.
func (pr Protocol) MarshalJSON() ([]byte, error) {
	return []byte(`"` + pr.String() + `"`), nil
}

// UsesAU reports whether the protocol binds written pages for
// automatic update.
func (pr Protocol) UsesAU() bool { return pr != HLRC }

// Config describes a shared-memory system.
type Config struct {
	Protocol Protocol
	// Bytes is the shared region size (rounded up to pages).
	Bytes int
	// Locks is the number of lock variables.
	Locks int
	// ReqRingBytes / RepRingBytes size the protocol channels.
	ReqRingBytes, RepRingBytes int
}

// DefaultConfig returns cfg with defaults filled in.
func DefaultConfig(protocol Protocol, bytes int) Config {
	return Config{
		Protocol:     protocol,
		Bytes:        bytes,
		Locks:        64,
		ReqRingBytes: 32 * 1024,
		RepRingBytes: 32 * 1024,
	}
}

// pageStatus is the local state of one shared page.
type pageStatus uint8

const (
	pgInvalid pageStatus = iota
	pgClean              // read-mapped, contents valid
	pgDirty              // write-mapped since the last release
)

type pageState struct {
	status pageStatus
	twin   []byte
}

// System is the shared-memory system spanning all nodes.
type System struct {
	sys   *vmmc.System
	cfg   Config
	Pages int
	nodes []*Runtime
	locks []*lockState // manager-side state, indexed by lock id (lives on lock home)
	// brk is the shared-region bump allocator (byte offset).
	brk int
}

// lockState lives on the lock's manager node.
type lockState struct {
	held    bool
	holder  int
	waiters []int
	// version counts releases; noticeVer[page] is the release version
	// that last dirtied it. lastSeen[rank] is the version the rank has
	// synchronized to.
	version   int
	noticeVer map[int]int
	lastSeen  []int
	// barrier bookkeeping is only used on node 0's lock 0 slot; see
	// barrier.go for the barrier manager state proper.
}

// Runtime is the per-node SVM library instance.
type Runtime struct {
	s    *System
	rank int
	node *machine.Node
	ep   *vmmc.Endpoint

	base  memory.Addr
	state []pageState
	dirty []int
	// sinceBarrier accumulates every page dirtied since the last
	// barrier (across lock releases): a barrier is a global acquire, so
	// its invalidations must subsume lock-interval write notices.
	sinceBarrier map[int]bool

	regionExp *vmmc.Export
	regionImp []*vmmc.Import

	reqIn  []*ring.Ring
	reqOut []*ring.Ring // request channels to each peer
	repIn  []*ring.Ring
	repOut []*ring.Ring // reply channels to each peer

	reqParse []msgParser
	repParse []msgParser
	svc      *sim.Resource

	// Barrier manager state (rank 0 only).
	bar *barrierState

	// barWait lets the local application block for barrier release.
	barWait   *sim.Cond
	barEpoch  int
	pendInval []invalidation

	// Lock grants destined for this node's own application (when it is
	// the lock manager).
	localGrants []localGrant
	lockCond    *sim.Cond

	// tr is the attached trace recorder (nil when tracing is off).
	tr *trace.Recorder
}

// trace records one protocol event for this rank when a recorder is
// attached; the nil check is the entire cost otherwise.
func (rt *Runtime) trace(k trace.Kind, a0, a1 int64) {
	if rt.tr != nil {
		rt.tr.Record(int64(rt.node.M.E.Now()), k, int32(rt.rank), a0, a1)
	}
}

// invalidation tells a node to discard its copy of a page unless it was
// the sole writer.
type invalidation struct {
	page       int
	soleWriter int // rank, or -1 for multiple writers
}

// New builds the shared-memory system over sys.
func New(vs *vmmc.System, cfg Config) *System {
	if cfg.Bytes <= 0 {
		panic("svm: non-positive region size")
	}
	if cfg.Locks <= 0 {
		cfg.Locks = 64
	}
	if cfg.ReqRingBytes <= 0 {
		cfg.ReqRingBytes = 32 * 1024
	}
	if cfg.RepRingBytes <= 0 {
		cfg.RepRingBytes = 32 * 1024
	}
	n := len(vs.EPs)
	pages := (cfg.Bytes + memory.PageSize - 1) / memory.PageSize
	s := &System{sys: vs, cfg: cfg, Pages: pages}
	for l := 0; l < cfg.Locks; l++ {
		s.locks = append(s.locks, &lockState{
			noticeVer: make(map[int]int),
			lastSeen:  make([]int, n),
		})
	}
	for r := 0; r < n; r++ {
		nd := vs.M.Nodes[r]
		rt := &Runtime{
			s:            s,
			rank:         r,
			node:         nd,
			ep:           vs.EP(r),
			state:        make([]pageState, pages),
			regionImp:    make([]*vmmc.Import, n),
			reqIn:        make([]*ring.Ring, n),
			reqOut:       make([]*ring.Ring, n),
			repIn:        make([]*ring.Ring, n),
			repOut:       make([]*ring.Ring, n),
			reqParse:     make([]msgParser, n),
			repParse:     make([]msgParser, n),
			svc:          sim.NewResource(vs.M.E),
			barWait:      sim.NewCond(vs.M.E),
			lockCond:     sim.NewCond(vs.M.E),
			sinceBarrier: make(map[int]bool),
			tr:           vs.M.E.Tracer(),
		}
		// The local region copy doubles as the exported receive buffer:
		// homes receive diffs and fetched pages land directly in place.
		rt.regionExp = rt.ep.Export(nil, pages)
		rt.base = rt.regionExp.Base
		s.nodes = append(s.nodes, rt)
	}
	if n > 0 {
		s.nodes[0].bar = newBarrierState(n)
	}
	// Region imports and protocol channels.
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			s.nodes[a].regionImp[b] = s.nodes[a].ep.Import(nil, s.nodes[b].regionExp)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			req := ring.New(vs.EP(src), vs.EP(dst),
				ring.Config{Bytes: cfg.ReqRingBytes, Mode: ring.DU, Notify: true})
			rep := ring.New(vs.EP(src), vs.EP(dst),
				ring.Config{Bytes: cfg.RepRingBytes, Mode: ring.DU})
			s.nodes[src].reqOut[dst] = req
			s.nodes[dst].reqIn[src] = req
			s.nodes[src].repOut[dst] = rep
			s.nodes[dst].repIn[src] = rep
		}
	}
	// Wire request-channel notification handlers.
	for dst := 0; dst < n; dst++ {
		rt := s.nodes[dst]
		for src := 0; src < n; src++ {
			if src == dst {
				continue
			}
			src := src
			rt.reqIn[src].DataExport().SetNotify(func(p *sim.Proc, _ *vmmc.Export, _ int) {
				rt.serviceRequests(p, src)
			})
		}
	}
	// Initial protection: every page starts invalid everywhere except at
	// its home, where the zeroed master copy is readable.
	for r := 0; r < n; r++ {
		rt := s.nodes[r]
		for pg := 0; pg < pages; pg++ {
			if s.Home(pg) == r {
				rt.state[pg].status = pgClean
				rt.node.Mem.SetProt(rt.pageVPN(pg), memory.ProtRead)
			} else {
				rt.state[pg].status = pgInvalid
				rt.node.Mem.SetProt(rt.pageVPN(pg), memory.ProtNone)
			}
		}
		rt.node.Mem.Fault = rt.handleFault
	}
	return s
}

// Home returns the home node of a page (round-robin distribution).
func (s *System) Home(page int) int { return page % len(s.nodes) }

// Nodes reports the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// M returns the underlying machine.
func (s *System) M() *machine.Machine { return s.sys.M }

// Protocol reports the configured protocol.
func (s *System) Protocol() Protocol { return s.cfg.Protocol }

// Runtime returns the per-node library instance for a rank.
func (s *System) Runtime(rank int) *Runtime { return s.nodes[rank] }

// Alloc reserves size bytes in the shared region and returns the byte
// offset (8-byte aligned). The layout is identical on every node.
func (s *System) Alloc(size int) int {
	off := (s.brk + 7) &^ 7
	if off+size > s.Pages*memory.PageSize {
		panic(fmt.Sprintf("svm: region exhausted (%d + %d > %d)",
			off, size, s.Pages*memory.PageSize))
	}
	s.brk = off + size
	return off
}

// AllocPages reserves whole pages and returns the byte offset.
func (s *System) AllocPages(n int) int {
	off := (s.brk + memory.PageSize - 1) &^ (memory.PageSize - 1)
	if off+n*memory.PageSize > s.Pages*memory.PageSize {
		panic("svm: region exhausted")
	}
	s.brk = off + n*memory.PageSize
	return off
}

// Rank reports this runtime's rank.
func (rt *Runtime) Rank() int { return rt.rank }

// Node returns the underlying machine node.
func (rt *Runtime) Node() *machine.Node { return rt.node }

// pageVPN maps a region page index to the local virtual page number.
func (rt *Runtime) pageVPN(page int) int { return rt.base.VPN() + page }

// Addr maps a region byte offset to the local virtual address: where
// a word run (machine.Node.StoreWords) stores as WriteUint32 would.
func (rt *Runtime) Addr(off int) memory.Addr { return rt.base + memory.Addr(off) }
