package nic

import (
	"testing"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
)

// rig is a minimal two-NIC harness without the machine layer.
type rig struct {
	e            *sim.Engine
	net          *mesh.Network
	mem0, mem1   *memory.AddressSpace
	n0, n1       *NIC
	acct0, acct1 *stats.Node
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	return newRigOn(t, sim.NewEngine(), cfg)
}

// newRigOn builds the rig on e, whose tracer, if any, must already be
// attached.
func newRigOn(t testing.TB, e *sim.Engine, cfg Config) *rig {
	t.Helper()
	mc := mesh.DefaultConfig()
	mc.Width, mc.Height = 2, 1
	net := mesh.New(e, mc)
	r := &rig{
		e: e, net: net,
		mem0: memory.NewAddressSpace(), mem1: memory.NewAddressSpace(),
		acct0: &stats.Node{}, acct1: &stats.Node{},
	}
	r.n0 = New(e, 0, net, r.mem0, sim.NewResource(e), r.acct0, cfg)
	r.n1 = New(e, 1, net, r.mem1, sim.NewResource(e), r.acct1, cfg)
	r.mem0.Snoop = r.n0.Snoop
	r.mem1.Snoop = r.n1.Snoop
	r.n0.Start()
	r.n1.Start()
	t.Cleanup(e.Shutdown)
	return r
}

func TestOPTIPTMapping(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.n0.MapOutgoing(5, 1, 9, true, true, false)
	ent, ok := r.n0.Outgoing(5)
	if !ok || !ent.AUEnable || !ent.Combine || ent.DstNode != 1 || ent.DstPage != 9 {
		t.Fatalf("OPT entry %+v ok=%v", ent, ok)
	}
	r.n0.UnmapOutgoing(5)
	if _, ok := r.n0.Outgoing(5); ok {
		t.Fatal("entry survived unmap")
	}
}

func TestInvalidIPTDropsPacket(t *testing.T) {
	r := newRig(t, DefaultConfig())
	src := r.mem0.Alloc(1)
	proxy := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	// Deliberately do NOT SetIncoming on node 1.
	r.n0.MapOutgoing(proxy.VPN(), 1, dst.VPN(), false, false, false)
	r.e.Spawn("send", func(p *sim.Proc) {
		r.n0.SendDU(p, src, proxy, 32, false, true)
		p.Sleep(sim.Millisecond)
	})
	r.e.Run()
	if r.n1.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.n1.Dropped())
	}
	if r.acct1.Counters.MessagesRecv != 0 {
		t.Fatal("dropped packet counted as received")
	}
}

// TestZeroDUQueueDepthPanics pins that a NIC with no deliberate-update
// request slot is refused both at construction and when a live NIC's
// knob block is replaced, instead of deadlocking its first transfer.
func TestZeroDUQueueDepthPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DUQueueDepth = 0
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted DUQueueDepth 0", name)
			}
		}()
		fn()
	}
	e := sim.NewEngine()
	defer e.Shutdown()
	net := mesh.New(e, mesh.DefaultConfig())
	mustPanic("New", func() {
		New(e, 0, net, memory.NewAddressSpace(), sim.NewResource(e), &stats.Node{}, cfg)
	})
	r := newRig(t, DefaultConfig())
	mustPanic("SetConfig", func() { r.n0.SetConfig(cfg) })
}

func TestSendDUValidation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	src := r.mem0.Alloc(2)
	proxy := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(proxy.VPN(), 1, dst.VPN(), false, false, false)

	mustPanic := func(name string, fn func(p *sim.Proc)) {
		r.e.Spawn(name, func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(p)
		})
	}
	mustPanic("cross-page-src", func(p *sim.Proc) {
		r.n0.SendDU(p, src+memory.PageSize-8, proxy, 64, false, true)
	})
	mustPanic("cross-page-dst", func(p *sim.Proc) {
		r.n0.SendDU(p, src, proxy+memory.PageSize-8, 64, false, true)
	})
	mustPanic("zero-size", func(p *sim.Proc) {
		r.n0.SendDU(p, src, proxy, 0, false, true)
	})
	mustPanic("unmapped-proxy", func(p *sim.Proc) {
		r.n0.SendDU(p, src, src, 8, false, true)
	})
	r.e.Run()
}

func TestCombiningFlushOnNonConsecutive(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
	r.e.Spawn("writer", func(p *sim.Proc) {
		// Three consecutive words combine into one pending packet...
		r.mem0.WriteUint64(p, local, 1)
		r.mem0.WriteUint64(p, local+8, 2)
		r.mem0.WriteUint64(p, local+16, 3)
		// ...then a non-consecutive store flushes them.
		r.mem0.WriteUint64(p, local+256, 4)
		p.Sleep(sim.Millisecond)
	})
	r.e.Run()
	if got := r.acct0.Counters.AUPackets; got != 2 {
		t.Fatalf("AU packets = %d, want 2 (combined run + flushing store)", got)
	}
	if got := r.acct0.Counters.AUStores; got != 4 {
		t.Fatalf("AU stores = %d, want 4", got)
	}
	if v := r.mem1.ReadUint64(nil, dst+16); v != 3 {
		t.Fatalf("combined payload word = %d", v)
	}
	if v := r.mem1.ReadUint64(nil, dst+256); v != 4 {
		t.Fatalf("flushing store payload = %d", v)
	}
}

func TestCombineTimerFlushes(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
	var arrived sim.Time
	r.n1.OnDeliver = func(pkt *Packet) { arrived = r.e.Now() }
	r.e.Spawn("writer", func(p *sim.Proc) {
		r.mem0.WriteUint64(p, local, 42)
		p.Sleep(sim.Millisecond) // no further stores: timer must flush
	})
	r.e.Run()
	if arrived == 0 {
		t.Fatal("lone combined store never flushed")
	}
	if arrived < cfg.CombineTimeout {
		t.Fatalf("flush at %v, before combine timeout %v", arrived, cfg.CombineTimeout)
	}
	if v := r.mem1.ReadUint64(nil, dst); v != 42 {
		t.Fatalf("payload = %d", v)
	}
}

func TestCombineLimitSplitsPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CombineLimit = 64
	r := newRig(t, cfg)
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
	r.e.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 32; i++ { // 256 consecutive bytes
			r.mem0.WriteUint64(p, local+memory.Addr(8*i), uint64(i))
		}
		p.Sleep(sim.Millisecond)
	})
	r.e.Run()
	if got := r.acct0.Counters.AUPackets; got != 4 {
		t.Fatalf("AU packets = %d, want 4 (256B / 64B limit)", got)
	}
}

func TestAUWithoutCombiningPacketPerStore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Combining = false
	r := newRig(t, cfg)
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
	r.e.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.mem0.WriteUint64(p, local+memory.Addr(8*i), uint64(i))
		}
		p.Sleep(sim.Millisecond)
	})
	r.e.Run()
	if got := r.acct0.Counters.AUPackets; got != 10 {
		t.Fatalf("AU packets = %d, want 10", got)
	}
}

func TestNoAUWhenDisabled(t *testing.T) {
	r := newRig(t, MyrinetLikeConfig())
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
	r.e.Spawn("writer", func(p *sim.Proc) {
		r.mem0.WriteUint64(p, local, 7)
		p.Sleep(sim.Millisecond)
	})
	r.e.Run()
	if r.acct0.Counters.AUPackets != 0 {
		t.Fatal("AU packets emitted with AutomaticUpdate disabled")
	}
}
