package ring

import (
	"bytes"
	"math/rand"
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

func newPair(t *testing.T, cfg Config) (*vmmc.System, *Ring) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(2))
	t.Cleanup(m.Close)
	s := vmmc.NewSystem(m)
	r := New(s.EP(0), s.EP(1), cfg)
	return s, r
}

func runTransfer(t *testing.T, cfg Config, writes [][]byte) []byte {
	t.Helper()
	s, r := newPair(t, cfg)
	total := 0
	for _, w := range writes {
		total += len(w)
	}
	got := make([]byte, total)
	s.M.RunParallel("xfer", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			for _, w := range writes {
				r.Write(p, w)
			}
		case 1:
			r.ReadFull(p, got)
		}
	})
	return got
}

func TestStreamIntegritySmall(t *testing.T) {
	for _, mode := range []Mode{DU, AU} {
		msg := []byte("hello stream over " + mode.String())
		got := runTransfer(t, Config{Bytes: 8192, Mode: mode, Combine: true},
			[][]byte{msg})
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: got %q", mode, got)
		}
	}
}

func TestStreamWrapAround(t *testing.T) {
	// Total traffic is several times the ring size, forcing wraps and
	// credit exchanges.
	for _, mode := range []Mode{DU, AU} {
		rng := rand.New(rand.NewSource(42))
		var writes [][]byte
		var all []byte
		for i := 0; i < 40; i++ {
			n := rng.Intn(3000) + 1
			w := make([]byte, n)
			rng.Read(w)
			writes = append(writes, w)
			all = append(all, w...)
		}
		got := runTransfer(t, Config{Bytes: 8192, Mode: mode, Combine: true}, writes)
		if !bytes.Equal(got, all) {
			t.Fatalf("%v: stream corrupted across wrap (len %d vs %d)", mode, len(got), len(all))
		}
	}
}

func TestSingleWriteLargerThanRing(t *testing.T) {
	for _, mode := range []Mode{DU, AU} {
		data := make([]byte, 40000) // ring is 8192
		for i := range data {
			data[i] = byte(i % 251)
		}
		got := runTransfer(t, Config{Bytes: 8192, Mode: mode, Combine: true},
			[][]byte{data})
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: oversized write corrupted", mode)
		}
	}
}

// TestDeepDUQueueKeepsPositionBehindData streams a burst of small
// messages over a DU ring whose NIC queues many transfer requests. The
// DU engine reads a transfer's source only when it starts it, so a
// position update still queued must carry its own position, never a
// later one whose data is queued behind it; the receiver reads what
// the position says is there, so an early position shows up as stale
// bytes. At depth 3*ctlWords the queue holds more than ctlWords
// position updates at once, which only the drain before the staging
// rotation wraps keeps apart.
func TestDeepDUQueueKeepsPositionBehindData(t *testing.T) {
	for _, depth := range []int{2, 8, 3 * ctlWords} {
		cfg := machine.DefaultConfig(2)
		cfg.NIC.DUQueueDepth = depth
		m := machine.New(cfg)
		s := vmmc.NewSystem(m)
		r := New(s.EP(0), s.EP(1), Config{Bytes: 128 * 1024, Mode: DU})
		const msgs, size = 3 * ctlWords, 96
		want := make([]byte, msgs*size)
		for i := range want {
			want[i] = byte(i / size)
		}
		got := make([]byte, 0, len(want))
		m.RunParallel("deep", func(nd *machine.Node, p *sim.Proc) {
			switch nd.ID {
			case 0:
				for i := 0; i < msgs; i++ {
					r.Write(p, want[i*size:(i+1)*size])
				}
			case 1:
				buf := make([]byte, 4096)
				for len(got) < len(want) {
					n := r.Read(p, buf)
					got = append(got, buf[:n]...)
				}
			}
		})
		m.Close()
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && got[i] == want[i] {
				i++
			}
			t.Errorf("depth %d: stream diverges at byte %d of %d", depth, i, len(want))
		}
	}
}

// TestDeepDUQueueFirstUpdateDoesNotDrain checks that a DU ring's first
// position update does not wait for the NIC's queue to drain: no word
// is staged yet, so only a wrap of the staging rotation needs the
// drain. Node 0 leaves a backlog of transfers on ring a, then writes
// ring b once; that write must return long before the backlog clears.
func TestDeepDUQueueFirstUpdateDoesNotDrain(t *testing.T) {
	cfg := machine.DefaultConfig(3)
	cfg.NIC.DUQueueDepth = 3 * ctlWords
	m := machine.New(cfg)
	defer m.Close()
	s := vmmc.NewSystem(m)
	a := New(s.EP(0), s.EP(1), Config{Bytes: 128 * 1024, Mode: DU})
	b := New(s.EP(0), s.EP(2), Config{Bytes: 4096, Mode: DU})
	const msgs, size = 16, 4096
	var burstDone, bDone, idle sim.Time
	m.RunParallel("first", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			for i := 0; i < msgs; i++ {
				a.Write(p, make([]byte, size))
			}
			burstDone = p.Now()
			b.Write(p, []byte{1})
			bDone = p.Now()
			nd.NIC.WaitDUIdle(p)
			idle = p.Now()
		case 1:
			a.ReadFull(p, make([]byte, msgs*size))
		case 2:
			b.ReadFull(p, make([]byte, 1))
		}
	})
	if wait, backlog := bDone-burstDone, idle-burstDone; wait*2 >= backlog {
		t.Errorf("ring b's first write took %v of a %v backlog; want it not to wait for the queue to drain", wait, backlog)
	}
}

func TestBackpressureBlocksWriter(t *testing.T) {
	s, r := newPair(t, Config{Bytes: 4096, Mode: DU})
	var writerDone, readerStart sim.Time
	s.M.RunParallel("bp", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			r.Write(p, make([]byte, 3*4096))
			writerDone = p.Now()
		case 1:
			p.Sleep(10 * sim.Millisecond) // reader idles; writer must block
			readerStart = p.Now()
			r.ReadFull(p, make([]byte, 3*4096))
		}
	})
	if writerDone <= readerStart {
		t.Fatalf("writer finished at %v before reader started at %v; no backpressure",
			writerDone, readerStart)
	}
}

func TestAvailableAndPartialReads(t *testing.T) {
	s, r := newPair(t, Config{Bytes: 8192, Mode: DU})
	s.M.RunParallel("partial", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			r.Write(p, []byte{1, 2, 3, 4, 5})
		case 1:
			buf := make([]byte, 2)
			n := r.Read(p, buf)
			if n != 2 || buf[0] != 1 || buf[1] != 2 {
				t.Errorf("first read got %v (n=%d)", buf, n)
			}
			rest := make([]byte, 3)
			r.ReadFull(p, rest)
			if rest[0] != 3 || rest[2] != 5 {
				t.Errorf("rest = %v", rest)
			}
			if a := r.Available(p); a != 0 {
				t.Errorf("available after drain = %d", a)
			}
		}
	})
}

func TestAUModeGeneratesAUTraffic(t *testing.T) {
	s, r := newPair(t, Config{Bytes: 8192, Mode: AU, Combine: true})
	s.M.RunParallel("au", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			r.Write(p, make([]byte, 2048))
		case 1:
			r.ReadFull(p, make([]byte, 2048))
		}
	})
	c := s.M.Nodes[0].Acct.Counters
	if c.AUPackets == 0 || c.AUStores == 0 {
		t.Fatalf("AU-mode ring produced no AU traffic: %+v", c)
	}
	if c.DUTransfers != 0 {
		t.Fatalf("AU-mode ring used %d DU transfers for data", c.DUTransfers)
	}
}

func TestDUFasterThanUncombinedAUForBulk(t *testing.T) {
	// §4.2/§4.5.1: for bulk transfers, DU beats AU-without-combining by
	// a wide margin (DFS-sockets ran ~2x slower forced to uncombined AU).
	elapsed := func(cfg Config) sim.Time {
		s, r := newPair(t, cfg)
		size := 64 * 1024
		return s.M.RunParallel("bulk", func(nd *machine.Node, p *sim.Proc) {
			switch nd.ID {
			case 0:
				r.Write(p, make([]byte, size))
			case 1:
				r.ReadFull(p, make([]byte, size))
			}
		})
	}
	du := elapsed(Config{Bytes: 32 * 1024, Mode: DU})
	auNo := elapsed(Config{Bytes: 32 * 1024, Mode: AU, Combine: false})
	if auNo < du*3/2 {
		t.Fatalf("uncombined AU (%v) not clearly slower than DU (%v) for bulk", auNo, du)
	}
	auYes := elapsed(Config{Bytes: 32 * 1024, Mode: AU, Combine: true})
	if auYes >= auNo {
		t.Fatalf("combining did not help bulk AU: with=%v without=%v", auYes, auNo)
	}
}

func TestNotifyRingFiresNotifications(t *testing.T) {
	s, r := newPair(t, Config{Bytes: 8192, Mode: DU, Notify: true})
	count := 0
	r.DataExport().SetNotify(func(p *sim.Proc, ex *vmmc.Export, off int) { count++ })
	s.M.RunParallel("notify", func(nd *machine.Node, p *sim.Proc) {
		switch nd.ID {
		case 0:
			for i := 0; i < 3; i++ {
				r.Write(p, []byte("ping"))
			}
		case 1:
			r.ReadFull(p, make([]byte, 12))
			p.Sleep(sim.Millisecond)
		}
	})
	if count != 3 {
		t.Fatalf("notifications = %d, want 3", count)
	}
}
