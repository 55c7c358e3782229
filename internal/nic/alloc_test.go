package nic

import (
	"testing"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
)

// TestStartAllocationBound pins the one-time construction cost of the
// NIC's continuation engines. Start binds, per engine, one dispatch
// method, one resume continuation and one queue-delivery callback,
// and parking each engine on its queue grows that queue's waiter list
// once — twelve allocations for the three engines, independent of how
// many steps each pipeline has. Binding a method value per step
// instead cost ~70 extra allocations per machine build (see CHANGES.md);
// this bound keeps that regression from creeping back.
func TestStartAllocationBound(t *testing.T) {
	const runs = 32
	e := sim.NewEngine()
	t.Cleanup(e.Shutdown)
	mc := mesh.DefaultConfig()
	mc.Width, mc.Height = 2, 1
	net := mesh.New(e, mc)
	nics := make([]*NIC, 0, runs+1)
	for i := 0; i <= runs; i++ {
		nics = append(nics, New(e, 0, net, memory.NewAddressSpace(),
			sim.NewResource(e), &stats.Node{}, DefaultConfig()))
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		nics[next].Start()
		next++
	})
	if avg > 12 {
		t.Fatalf("NIC.Start allocates %.1f objects, want <= 12 "+
			"(three engines x (dispatch method + resume + delivery callback + queue park))", avg)
	}
}

// TestAUEmitAllocationFree asserts the automatic-update path — snooped
// store, combining buffer, packet emission, mesh transit, receive-side
// DMA, packet recycle — performs zero steady-state heap allocations.
func TestAUEmitAllocationFree(t *testing.T) {
	r := newRig(t, DefaultConfig())
	local := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)

	word := uint32(1)
	avg := testing.AllocsPerRun(100, func() {
		r.mem0.WriteUint32(nil, local+8, word)
		r.mem0.WriteUint32(nil, local+12, word+1)
		word += 2
		r.e.Run() // drain: combine timeout fires, packet crosses, recycles
	})
	if avg != 0 {
		t.Fatalf("AU emit path allocates %.1f objects per store burst, want 0", avg)
	}
}

// TestDUEmitAllocationFree asserts the deliberate-update path — request
// queue, DMA engine, packet injection, receive-side store, recycle —
// performs zero steady-state heap allocations.
func TestDUEmitAllocationFree(t *testing.T) {
	r := newRig(t, DefaultConfig())
	src := r.mem0.Alloc(1)
	proxy := r.mem0.Alloc(1)
	dst := r.mem1.Alloc(1)
	r.n1.SetIncoming(dst.VPN(), false)
	r.n0.MapOutgoing(proxy.VPN(), 1, dst.VPN(), false, false, false)

	avg := testing.AllocsPerRun(100, func() {
		// The request queue is empty each iteration (the engine drains
		// fully), so SendDU never blocks and a nil proc is safe.
		r.n0.SendDU(nil, src, proxy, 256, false, true)
		r.e.Run()
	})
	if avg != 0 {
		t.Fatalf("DU emit path allocates %.1f objects per transfer, want 0", avg)
	}
}
