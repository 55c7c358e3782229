package machine

import (
	"testing"

	"shrimp/internal/sim"
)

// auStreamer builds a 2-node machine whose node 0 process stores a
// 4 KB byte run to an AU-bound, combining page of node 1 each time the
// returned function runs, then waits for the next call. The run
// streams: it flushes every few words and stores each window in one
// pass.
func auStreamer(tb testing.TB) func() {
	tb.Helper()
	cfg := DefaultConfig(2)
	m := New(cfg)
	tb.Cleanup(m.Close)
	n0, n1 := m.Nodes[0], m.Nodes[1]
	dst := n1.Mem.Alloc(1)
	n1.NIC.SetIncoming(dst.VPN(), false)
	au := n0.Mem.Alloc(1)
	n0.NIC.MapOutgoing(au.VPN(), n1.ID, dst.VPN(), true, true, false)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	resume := sim.NewCond(m.E)
	m.E.Spawn("writer", func(p *sim.Proc) {
		for {
			resume.Wait(p)
			n0.StoreBytes(p, au, data)
		}
	})
	m.E.Run()
	return func() {
		resume.Signal()
		m.E.Run()
	}
}

// BenchmarkStoreBytesAU measures a streaming 4 KB automatic-update
// store end to end: flush windows, snoops, combining, packet emission,
// mesh transit and receive DMA.
func BenchmarkStoreBytesAU(b *testing.B) {
	store := auStreamer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store()
	}
}

// TestStoreBytesAUAllocationFree asserts BenchmarkStoreBytesAU's store
// allocates nothing once its pools are warm.
func TestStoreBytesAUAllocationFree(t *testing.T) {
	store := auStreamer(t)
	store()
	if avg := testing.AllocsPerRun(20, store); avg != 0 {
		t.Fatalf("a 4 KB AU store allocates %.1f objects, want 0", avg)
	}
}
