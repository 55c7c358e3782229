package nic

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

// snoopLog is everything a snoop program leaves observable.
type snoopLog struct {
	lines    []string // deliveries and probes, in the order they ran
	counters stats.Counters
	events   []trace.Event
	fn       uint64 // fn events dispatched
	dst      []byte
}

// playSnoops plays seed's program of byte runs, each stored at its own
// instant into three AU-bound pages of node 0 (the last one not
// combinable), through one memory write per run, which is one snoop,
// or, perWord, one write per AU word. Runs often continue where the
// last one ended, at the same instant or within the combine timeout.
// Two probes fire at each run's combine deadline, one filed before the
// program starts and one right after the run, and log whether the
// combining buffer is still open: where the timer sits among the
// events due at its instant shows in the log.
func playSnoops(t *testing.T, cfg Config, seed int64, traced, perWord bool) snoopLog {
	var tr *trace.Recorder
	e := sim.NewEngine()
	if traced {
		tr = trace.NewRecorder(trace.Options{})
		e.SetTracer(tr)
	}
	r := newRigOn(t, e, cfg)
	const pages = 3
	local := r.mem0.Alloc(pages)
	dst := r.mem1.Alloc(pages)
	for i := 0; i < pages; i++ {
		r.n1.SetIncoming(dst.VPN()+i, false)
		r.n0.MapOutgoing(local.VPN()+i, 1, dst.VPN()+i, true, i < pages-1, false)
	}
	var out snoopLog
	logf := func(format string, args ...any) {
		out.lines = append(out.lines, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	r.n1.OnDeliver = func(pkt *Packet) {
		logf("deliver page %d off %d %x", pkt.DstPage, pkt.DstOffset, pkt.Data)
	}
	probe := func(name string, i int) func() {
		return func() { logf("%s %d: active %v, %d bytes", name, i, r.n0.combine.active, len(r.n0.combine.buf)) }
	}
	rng := rand.New(rand.NewSource(seed))
	at, addr := sim.Time(0), local
	word := cfg.AUWordBytes
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 0: // the same instant
		case 1:
			at += sim.Time(rng.Intn(int(cfg.CombineTimeout)))
		default:
			at += sim.Time(rng.Intn(3 * int(cfg.CombineTimeout)))
		}
		if rng.Intn(3) == 0 {
			addr = local + memory.Addr(rng.Intn(pages)*memory.PageSize+word*rng.Intn(memory.PageSize/word-40))
		}
		data := make([]byte, 1+rng.Intn(100))
		rng.Read(data)
		e.At(at+cfg.CombineTimeout, probe("before", i))
		run, base := i, addr
		e.At(at, func() {
			if perWord {
				for off := 0; off < len(data); off += word {
					r.mem0.Write(nil, base+memory.Addr(off), data[off:min(off+word, len(data))])
				}
			} else {
				r.mem0.Write(nil, base, data)
			}
			e.After(cfg.CombineTimeout, probe("after", run))
		})
		if end := addr + memory.Addr(len(data)); end.VPN() == addr.VPN() && rng.Intn(4) != 0 {
			addr = end
		} else {
			addr = local + memory.Addr(addr.VPN()-local.VPN())*memory.PageSize
		}
	}
	e.Run()
	out.counters = r.acct0.Counters
	if tr != nil {
		out.events = tr.Events()
	}
	out.fn = e.Census().FnEvents
	out.dst = make([]byte, pages*memory.PageSize)
	r.mem1.Read(nil, dst, out.dst)
	return out
}

// TestSnoopRunMatchesPerWord: one snoop of a multi-word run must do
// what snooping its words one at a time does: the same packets at the
// same instants, the same AU counters, the combining timer firing in
// the same place among the events due at its instant, and, traced, the
// same trace records, one combine-hit per appended word. Words are 4
// or 8 bytes, combining is on or off, and a combine limit of 24 bytes
// cuts most runs.
func TestSnoopRunMatchesPerWord(t *testing.T) {
	for _, combining := range []bool{true, false} {
		for _, word := range []int{4, 8} {
			for _, limit := range []int{24, 256} {
				cfg := DefaultConfig()
				cfg.Combining, cfg.AUWordBytes, cfg.CombineLimit = combining, word, limit
				for seed := int64(1); seed <= 4; seed++ {
					for _, traced := range []bool{true, false} {
						want := playSnoops(t, cfg, seed, traced, true)
						if combining && want.counters.AUStores <= want.counters.AUPackets {
							t.Fatalf("seed %d: %d AU stores in %d packets: nothing combined", seed, want.counters.AUStores, want.counters.AUPackets)
						}
						if traced && len(want.events) == 0 {
							t.Fatalf("seed %d: no trace records", seed)
						}
						if d := diffSnoops(playSnoops(t, cfg, seed, traced, false), want); d != "" {
							t.Fatalf("combining %v, %d-byte words, limit %d, seed %d, traced %v: %s",
								combining, word, limit, seed, traced, d)
						}
					}
				}
			}
		}
	}
}

// diffSnoops describes the first difference between two snoop logs, or
// returns "" when they are the same.
func diffSnoops(got, want snoopLog) string {
	for i := range min(len(got.lines), len(want.lines)) {
		if got.lines[i] != want.lines[i] {
			return fmt.Sprintf("line %d is %q, the reference has %q", i, got.lines[i], want.lines[i])
		}
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"lines", len(got.lines), len(want.lines)},
		{"counters", got.counters, want.counters},
		{"trace events", got.events, want.events},
		{"fn events", got.fn, want.fn},
		{"received bytes", got.dst, want.dst},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Sprintf("%s differ:\n got %v\nwant %v", c.what, c.got, c.want)
		}
	}
	return ""
}

// TestCombineTimerRearmsOnAppend: a word appended to the combining
// buffer pushes its flush to a full timeout after the append, whether
// the append is a snoop of its own or part of a longer run's snoop.
func TestCombineTimerRearmsOnAppend(t *testing.T) {
	for _, second := range []int{8, 24} {
		cfg := DefaultConfig()
		r := newRig(t, cfg)
		local := r.mem0.Alloc(1)
		dst := r.mem1.Alloc(1)
		r.n1.SetIncoming(dst.VPN(), false)
		r.n0.MapOutgoing(local.VPN(), 1, dst.VPN(), true, true, false)
		r.e.At(0, func() { r.mem0.Write(nil, local, make([]byte, 8)) })
		r.e.At(sim.Microsecond, func() { r.mem0.Write(nil, local+8, make([]byte, second)) })
		due := sim.Microsecond + cfg.CombineTimeout
		for _, at := range []sim.Time{due - 1, due + 1} {
			r.e.At(at, func() {
				if open := r.n0.combine.active; open != (at < due) {
					t.Errorf("%d-byte append: combining buffer open %v at %v, want it to flush at %v", second, open, at, due)
				}
			})
		}
		r.e.Run()
		if r.acct0.Counters.AUPackets != 1 {
			t.Fatalf("%d-byte append: %d packets, want 1", second, r.acct0.Counters.AUPackets)
		}
	}
}
