package harness

import (
	"bytes"
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/svm"
)

// quickConfig keeps harness tests fast: 4 nodes, tiny workloads.
func quickConfig() Config {
	return Config{Nodes: 4, Workloads: QuickWorkloads()}
}

func TestRunEveryApp(t *testing.T) {
	cfg := quickConfig()
	for _, a := range AllApps() {
		res := Run(Spec{App: a, Nodes: cfg.Nodes, Variant: DefaultVariant(a)}, &cfg.Workloads)
		if res.Elapsed <= 0 {
			t.Errorf("%v: non-positive elapsed", a)
		}
		if res.Breakdown.Total() <= 0 {
			t.Errorf("%v: empty breakdown", a)
		}
	}
}

// TestOceanNXMoreRanksThanRows runs quick Ocean-NX (48 interior rows)
// on more nodes than rows, so some ranks own no rows, rank 0 among
// them. The app validates its grid against the sequential solver and
// panics on a mismatch.
func TestOceanNXMoreRanksThanRows(t *testing.T) {
	wl := QuickWorkloads()
	for _, nodes := range []int{50, 64} {
		for _, v := range []Variant{VariantAU, VariantDU} {
			if res := Run(Spec{App: OceanNX, Nodes: nodes, Variant: v}, &wl); res.Elapsed <= 0 {
				t.Errorf("Ocean-NX/%v on %d nodes: non-positive elapsed", v, nodes)
			}
		}
	}
}

func TestTable1AllRows(t *testing.T) {
	cfg := quickConfig()
	rows := Table1(cfg)
	if len(rows) != int(NumApps) {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows, &cfg.Workloads)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestFigure3SpeedupsReasonable(t *testing.T) {
	cfg := quickConfig()
	curves := Figure3(cfg)
	if len(curves) != 6 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if c.Speedups[0] < 0.99 || c.Speedups[0] > 1.01 {
			t.Errorf("%v: 1-node speedup %f != 1", c.App, c.Speedups[0])
		}
		last := c.Speedups[len(c.Speedups)-1]
		if last <= 0 {
			t.Errorf("%v: nonsensical speedup %f", c.App, last)
		}
	}
	var buf bytes.Buffer
	PrintFigure3(&buf, curves)
}

func TestFigure4SVMShape(t *testing.T) {
	cfg := quickConfig()
	rows := Figure4SVM(cfg)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	gains := AURCGain(rows)
	// Radix (heavy false sharing) must benefit most from AURC; all
	// gains must be positive, as in the paper.
	if gains[RadixSVM] <= gains[BarnesSVM] {
		t.Errorf("Radix AURC gain (%.1f%%) not above Barnes (%.1f%%)",
			gains[RadixSVM], gains[BarnesSVM])
	}
	for a, g := range gains {
		if g <= 0 {
			t.Errorf("%v: AURC not faster than HLRC (gain %.1f%%)", a, g)
		}
	}
	// HLRC-AU must not be a large win over HLRC (paper: very little
	// benefit, sometimes a slight loss).
	byProto := map[App]map[svm.Protocol]sim.Time{}
	for _, r := range rows {
		if byProto[r.App] == nil {
			byProto[r.App] = map[svm.Protocol]sim.Time{}
		}
		byProto[r.App][r.Protocol] = r.Elapsed
	}
	for a, m := range byProto {
		gain := (float64(m[svm.HLRC]) - float64(m[svm.HLRCAU])) / float64(m[svm.HLRC]) * 100
		auGain := (float64(m[svm.HLRC]) - float64(m[svm.AURC])) / float64(m[svm.HLRC]) * 100
		if gain > auGain {
			t.Errorf("%v: HLRC-AU gain %.1f%% exceeds AURC gain %.1f%%", a, gain, auGain)
		}
	}
	var buf bytes.Buffer
	PrintFigure4SVM(&buf, rows)
}

func TestFigure4AUDUShape(t *testing.T) {
	cfg := quickConfig()
	rows := Figure4AUDU(cfg)
	for _, r := range rows {
		switch r.App {
		case RadixVMMC:
			if r.AUSpeedup <= 1 {
				t.Errorf("Radix-VMMC: AU not faster than DU (%.2fx)", r.AUSpeedup)
			}
		case OceanNX, BarnesNX:
			// Message-passing apps: AU must not be a big win (paper: DU
			// performs comparably or better for bulk transfers).
			if r.AUSpeedup > 1.5 {
				t.Errorf("%v: AU implausibly better than DU (%.2fx)", r.App, r.AUSpeedup)
			}
		}
	}
	var buf bytes.Buffer
	PrintFigure4AUDU(&buf, rows)
}

func TestTable2SyscallsHurt(t *testing.T) {
	cfg := quickConfig()
	rows := Table2(cfg)
	for _, r := range rows {
		if r.Percent < -1 {
			t.Errorf("%v: syscall-per-send made the app faster (%.1f%%)", r.App, r.Percent)
		}
	}
	// The fine-grained message-passing Barnes must suffer more than the
	// nearly message-free Radix-VMMC (paper: 52.2% vs 5.9%). Orderings
	// among the SVM applications are only meaningful at full scale; see
	// EXPERIMENTS.md.
	byApp := map[App]float64{}
	for _, r := range rows {
		byApp[r.App] = r.Percent
	}
	if byApp[BarnesNX] <= byApp[RadixVMMC] {
		t.Errorf("Barnes-NX syscall cost (%.1f%%) not above Radix-VMMC (%.1f%%)",
			byApp[BarnesNX], byApp[RadixVMMC])
	}
	var buf bytes.Buffer
	PrintWhatIf(&buf, "t2", rows)
}

func TestTable3NotificationShares(t *testing.T) {
	cfg := quickConfig()
	rows := Table3(cfg)
	byApp := map[App]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// SVM applications use notifications; VMMC/sockets applications
	// poll (paper: 0%).
	for _, a := range []App{BarnesSVM, OceanSVM, RadixSVM} {
		if byApp[a].Notifications == 0 {
			t.Errorf("%v: no notifications", a)
		}
	}
	for _, a := range []App{RadixVMMC, DFSSockets, RenderSockets} {
		if byApp[a].Notifications != 0 {
			t.Errorf("%v: unexpected notifications %d", a, byApp[a].Notifications)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
}

func TestTable4InterruptsHurt(t *testing.T) {
	cfg := quickConfig()
	rows := Table4(cfg)
	byApp := map[App]float64{}
	for _, r := range rows {
		byApp[r.App] = r.Percent
		if r.Percent < -1 {
			t.Errorf("%v: per-message interrupts made the app faster", r.App)
		}
	}
	// Radix-VMMC-AU sends almost no messages, so the penalty must stay
	// small (paper: 0.3%; at this test's tiny scale the few control
	// messages weigh more); the request-response DFS must feel it.
	if byApp[RadixVMMC] > 6 {
		t.Errorf("Radix-VMMC interrupt penalty %.1f%% too high", byApp[RadixVMMC])
	}
	if byApp[DFSSockets] < 0.5 {
		t.Errorf("DFS penalty (%.1f%%) implausibly low", byApp[DFSSockets])
	}
	var buf bytes.Buffer
	PrintWhatIf(&buf, "t4", rows)
}

func TestCombiningShape(t *testing.T) {
	cfg := quickConfig()
	rows := Combining(cfg)
	last := rows[len(rows)-1] // DFS forced AU
	if last.Percent < 30 {
		t.Errorf("DFS uncombined slowdown %.1f%% too small (paper ~2x)", last.Percent)
	}
	for _, r := range rows[:len(rows)-1] {
		if r.Percent > 25 {
			t.Errorf("%s: combining effect %.1f%% too large (paper <1%%)", r.Name, r.Percent)
		}
	}
	var buf bytes.Buffer
	PrintCombining(&buf, rows)
}

func TestFIFOShape(t *testing.T) {
	cfg := quickConfig()
	rows := FIFO(cfg)
	for _, r := range rows {
		if r.Percent > 5 || r.Percent < -5 {
			t.Errorf("%v: FIFO size changed time by %.2f%% (paper: none)", r.App, r.Percent)
		}
	}
	var buf bytes.Buffer
	PrintFIFO(&buf, rows)
}

func TestDUQueueShape(t *testing.T) {
	cfg := quickConfig()
	rows := DUQueue(cfg)
	for _, r := range rows {
		if r.Percent > 3 || r.Percent < -3 {
			t.Errorf("%v: queueing effect %.2f%% outside paper's ~1%%", r.App, r.Percent)
		}
	}
	var buf bytes.Buffer
	PrintDUQueue(&buf, rows)
}

func TestLatencyMatchesPaper(t *testing.T) {
	got := Latency()
	ref := PaperLatency()
	within := func(name string, g, r sim.Time, tol float64) {
		lo := float64(r) * (1 - tol)
		hi := float64(r) * (1 + tol)
		if float64(g) < lo || float64(g) > hi {
			t.Errorf("%s = %v, want %v +/-%.0f%%", name, g, r, tol*100)
		}
	}
	within("DU latency", got.DUSmall, ref.DUSmall, 0.15)
	within("AU latency", got.AUWord, ref.AUWord, 0.15)
	within("Myrinet-like latency", got.MyrinetLike, ref.MyrinetLike, 0.20)
	if got.SendOverhead >= ref.SendOverhead {
		t.Errorf("send overhead %v not under 2us", got.SendOverhead)
	}
	if got.DUSmall >= got.MyrinetLike {
		t.Error("SHRIMP not faster than the Myrinet-like system")
	}
	var buf bytes.Buffer
	PrintLatency(&buf, got)
}

func TestInterruptPerPacketWorse(t *testing.T) {
	cfg := quickConfig()
	rows := InterruptPerPacket(cfg)
	worse := 0
	for _, r := range rows {
		if r.PktPct >= r.MsgPct-0.5 {
			worse++
		}
	}
	// "Overheads will be even higher in some cases": per-packet must
	// never be meaningfully cheaper, and strictly worse somewhere.
	if worse < len(rows) {
		t.Errorf("per-packet cheaper than per-message on %d apps", len(rows)-worse)
	}
	strictly := false
	for _, r := range rows {
		if r.PktPct > r.MsgPct+1 {
			strictly = true
		}
	}
	if !strictly {
		t.Error("per-packet never strictly worse than per-message")
	}
	var buf bytes.Buffer
	PrintPerPacket(&buf, rows)
}

func TestDeterministicReplay(t *testing.T) {
	// The simulator guarantees bit-for-bit reproducibility: identical
	// specs must produce identical virtual times and counters.
	w := QuickWorkloads()
	for _, a := range []App{RadixSVM, BarnesNX, DFSSockets} {
		s := Spec{App: a, Nodes: 4, Variant: DefaultVariant(a)}
		r1 := Run(s, &w)
		r2 := Run(s, &w)
		if r1.Elapsed != r2.Elapsed {
			t.Errorf("%v: elapsed %v vs %v across identical runs", a, r1.Elapsed, r2.Elapsed)
		}
		if r1.Counters != r2.Counters {
			t.Errorf("%v: counters differ across identical runs", a)
		}
		if r1.Breakdown != r2.Breakdown {
			t.Errorf("%v: breakdown differs across identical runs", a)
		}
	}
}
