package twin

import (
	"math"
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// TestMeshTransitMatchesOracle pins the twin's mesh term against the
// real mesh.Network.Send on an idle fabric: for every (src,dst) pair
// and a spread of packet sizes, the closed form must reproduce the
// simulator's delivery time exactly.
func TestMeshTransitMatchesOracle(t *testing.T) {
	cfg := machine.DefaultConfig(16)
	m := New(cfg)
	sizes := []int{8, 24, 64, 272, 4112}
	for _, size := range sizes {
		for src := 0; src < cfg.Nodes; src++ {
			for dst := 0; dst < cfg.Nodes; dst++ {
				// Fresh engine+mesh per send so every packet sees an
				// idle (uncontended) fabric, which is what the closed
				// form models.
				e := sim.NewEngine()
				net := mesh.New(e, cfg.Mesh)
				for i := 0; i < net.Nodes(); i++ {
					net.Attach(mesh.NodeID(i), func(*mesh.Packet) {})
				}
				pkt := &mesh.Packet{Src: mesh.NodeID(src), Dst: mesh.NodeID(dst), Size: size}
				want := net.Send(pkt)
				hops := m.Hops(src, dst)
				if oh := net.Hops(mesh.NodeID(src), mesh.NodeID(dst)); oh != hops {
					t.Fatalf("Hops(%d,%d) = %d, mesh says %d", src, dst, hops, oh)
				}
				got := m.MeshTransit(hops, size)
				if got != want {
					t.Fatalf("MeshTransit(%d hops, %d B) = %v, mesh.Send = %v",
						hops, size, got, want)
				}
			}
		}
	}
}

// TestDUMessageMatchesPaper checks the single-packet deliberate-update
// closed form against the paper's §3 measurement: one-word user-to-user
// latency about 6 µs on the SHRIMP configuration.
func TestDUMessageMatchesPaper(t *testing.T) {
	m := New(machine.DefaultConfig(2))
	got := float64(m.DUMessage(1, 4)) / float64(sim.Microsecond)
	if math.Abs(got-6.0) > 0.9 {
		t.Fatalf("DU 4-byte latency = %.3f us, want about 6 us", got)
	}
	// AU word latency lands near the paper's 3.71 us (the model's snoop
	// path is coarser, so the tolerance is wider).
	au := float64(m.AUWord(1)) / float64(sim.Microsecond)
	if au < 2.5 || au > 5.5 {
		t.Fatalf("AU word latency = %.3f us, want within [2.5, 5.5]", au)
	}
	// Send overhead must stay under the paper's 2 us bound and grow by
	// exactly the syscall cost under the kernel-DMA knob.
	if so := m.SendOverhead(); so >= 2*sim.Microsecond {
		t.Fatalf("send overhead = %v, want < 2 us", so)
	}
	kcfg := machine.DefaultConfig(2)
	kcfg.SyscallPerSend = true
	km := New(kcfg)
	if diff := km.SendOverhead() - m.SendOverhead(); diff != kcfg.Cost.SyscallCost {
		t.Fatalf("syscall knob adds %v, want %v", diff, kcfg.Cost.SyscallCost)
	}
}

// TestDUPacketsAndMultiPacket covers the MaxTransfer split.
func TestDUPacketsAndMultiPacket(t *testing.T) {
	m := New(machine.DefaultConfig(2))
	max := m.Config().NIC.MaxTransfer
	cases := []struct{ payload, want int }{
		{0, 1}, {1, 1}, {max, 1}, {max + 1, 2}, {3 * max, 3}, {3*max + 5, 4},
	}
	for _, c := range cases {
		if got := m.DUPackets(c.payload); got != c.want {
			t.Errorf("DUPackets(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
	// A two-packet message must cost more than one full packet but less
	// than two sequential full messages (the pipeline overlaps transit).
	one := m.DUMessage(2, max)
	two := m.DUMessage(2, 2*max)
	if two <= one || two >= 2*one {
		t.Fatalf("2-packet message %v not in (%v, %v)", two, one, 2*one)
	}
}

// TestCombiningTerms checks the AU packet-rate and stream terms react
// to the combining knob the way §4.5.1 describes.
func TestCombiningTerms(t *testing.T) {
	on := machine.DefaultConfig(4)
	off := on
	off.NIC.Combining = false
	mon, moff := New(on), New(off)
	if bon, boff := mon.AUPacketBytes(), moff.AUPacketBytes(); bon <= boff {
		t.Fatalf("combining on packet payload %v, off %v: want on > off", bon, boff)
	}
	n := 64 * 1024
	if son, soff := mon.AUStreamTime(n), moff.AUStreamTime(n); son > soff {
		t.Fatalf("combining on stream %v slower than off %v", son, soff)
	}
}

// TestInterruptPenalty covers the three §4.4 delivery regimes.
func TestInterruptPenalty(t *testing.T) {
	base := machine.DefaultConfig(2)
	m := New(base)
	if p := m.InterruptPenaltyPerMessage(4); p != 0 {
		t.Fatalf("as-built penalty = %v, want 0", p)
	}
	msg := base
	msg.NIC.InterruptPerMessage = true
	msg.NIC.InterruptStall = base.Cost.InterruptCost
	pkt := msg
	pkt.NIC.InterruptPerPacket = true
	mm, mp := New(msg), New(pkt)
	if got := mm.InterruptPenaltyPerMessage(4); got != base.Cost.InterruptCost {
		t.Fatalf("per-message penalty = %v, want %v", got, base.Cost.InterruptCost)
	}
	if got, want := mp.InterruptPenaltyPerMessage(4), 4*base.Cost.InterruptCost; got != want {
		t.Fatalf("per-packet penalty = %v, want %v", got, want)
	}
}

// TestBarrierScaling: the all-to-all flag barrier grows with node count
// and vanishes for a single node.
func TestBarrierScaling(t *testing.T) {
	if b := New(machine.DefaultConfig(1)).Barrier(1); b != 0 {
		t.Fatalf("1-node barrier = %v, want 0", b)
	}
	prev := sim.Time(0)
	for _, n := range []int{2, 4, 8, 16} {
		b := New(machine.DefaultConfig(n)).Barrier(n)
		if b <= prev {
			t.Fatalf("barrier(%d) = %v, not greater than smaller system's %v", n, b, prev)
		}
		prev = b
	}
}
