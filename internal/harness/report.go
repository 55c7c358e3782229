package harness

import (
	"fmt"
	"io"
	"strings"

	"shrimp/internal/stats"
)

// fsec renders virtual time as seconds.
func fsec(t interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%8.3fs", t.Seconds())
}

// fpaper renders a paper reference value that may be missing.
func fpaper(v float64) string {
	if v < 0 {
		return "      —"
	}
	return fmt.Sprintf("%6.1f%%", v)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// PrintTable1 renders the application-characteristics table.
func PrintTable1(w io.Writer, rows []Table1Row, wl *Workloads) {
	header(w, "Table 1: applications and sequential execution times")
	fmt.Fprintf(w, "(problem sizes: %s)\n", wl.Note)
	fmt.Fprintf(w, "%-15s %-8s %-22s %12s %10s\n",
		"Application", "API", "Problem size", "Seq time", "Paper")
	for _, r := range rows {
		paper := "      —"
		if r.PaperSec >= 0 {
			paper = fmt.Sprintf("%6.1fs", r.PaperSec)
		}
		fmt.Fprintf(w, "%-15s %-8s %-22s %12s %10s\n",
			r.App, r.API, r.Size, fsec(r.SeqTime), paper)
	}
}

// PrintFigure3 renders the speedup curves.
func PrintFigure3(w io.Writer, curves []Figure3Curve) {
	header(w, "Figure 3: speedups (better of AU/DU per application)")
	if len(curves) == 0 {
		return
	}
	fmt.Fprintf(w, "%-18s", "Application")
	for _, n := range curves[0].Nodes {
		fmt.Fprintf(w, "%7dP", n)
	}
	fmt.Fprintln(w)
	for _, c := range curves {
		fmt.Fprintf(w, "%-13s (%s)", c.App, c.Variant)
		for _, s := range c.Speedups {
			fmt.Fprintf(w, "%8.2f", s)
		}
		fmt.Fprintln(w)
	}
}

// PrintFigure4SVM renders the SVM protocol comparison.
func PrintFigure4SVM(w io.Writer, rows []Figure4SVMRow) {
	header(w, "Figure 4 (left): HLRC vs HLRC-AU vs AURC, normalized to HLRC")
	fmt.Fprintf(w, "%-12s %-8s %9s  %7s %7s %7s %7s %7s\n",
		"App", "Proto", "Time", "comp", "comm", "lock", "barr", "ovhd")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %9s ", r.App, r.Protocol, fsec(r.Elapsed))
		for i := 0; i < int(stats.NumCategories); i++ {
			fmt.Fprintf(w, " %6.3f", r.Breakdown[i])
		}
		fmt.Fprintln(w)
	}
	gains := AURCGain(rows)
	for _, a := range []App{BarnesSVM, OceanSVM, RadixSVM} {
		fmt.Fprintf(w, "AURC gain over HLRC, %-12s: %6.1f%%   (paper: %.1f%%)\n",
			a, gains[a], appDecls[a].paper.aurcGain)
	}
}

// PrintFigure4AUDU renders the AU-vs-DU application comparison.
func PrintFigure4AUDU(w io.Writer, rows []Figure4AUDURow) {
	header(w, "Figure 4 (right): automatic vs deliberate update")
	fmt.Fprintf(w, "%-13s %12s %12s %10s  %s\n", "App", "AU time", "DU time", "DU/AU", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %12s %12s %9.2fx  %s\n",
			r.App, fsec(r.ElapsedAU), fsec(r.ElapsedDU), r.AUSpeedup, r.PaperNote)
	}
}

// PrintWhatIf renders a Table 2 / Table 4 style comparison.
func PrintWhatIf(w io.Writer, title string, rows []WhatIfRow) {
	header(w, title)
	fmt.Fprintf(w, "%-15s %12s %12s %9s %9s\n",
		"Application", "Baseline", "Modified", "Increase", "Paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12s %12s %8.1f%% %9s\n",
			r.App, fsec(r.Baseline), fsec(r.Modified), r.Percent, fpaper(r.Paper))
	}
}

// PrintTable3 renders the notification-usage table.
func PrintTable3(w io.Writer, rows []Table3Row) {
	header(w, "Table 3: notifications vs total messages")
	fmt.Fprintf(w, "%-15s %14s %14s %6s   %s\n",
		"Application", "Notifications", "Messages", "%", "paper (notif/msgs, %)")
	for _, r := range rows {
		paperPct := 0.0
		if r.PaperMsgs > 0 {
			paperPct = float64(r.PaperNotif) / float64(r.PaperMsgs) * 100
		}
		fmt.Fprintf(w, "%-15s %14d %14d %5.0f%%   %d/%d, %.0f%%\n",
			r.App, r.Notifications, r.Messages, r.Percent,
			r.PaperNotif, r.PaperMsgs, paperPct)
	}
}

// PrintCombining renders the §4.5.1 results.
func PrintCombining(w io.Writer, rows []CombiningRow) {
	header(w, "§4.5.1: automatic-update combining")
	fmt.Fprintf(w, "%-24s %12s %12s %10s   %s\n",
		"Configuration", "Combined", "Uncombined", "Slowdown", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12s %12s %9.1f%%   %s\n",
			r.Name, fsec(r.With), fsec(r.Without), r.Percent, r.PaperNote)
	}
}

// PrintFIFO renders the §4.5.2 results.
func PrintFIFO(w io.Writer, rows []FIFORow) {
	header(w, "§4.5.2: outgoing FIFO capacity (32 KB vs 1 KB)")
	fmt.Fprintf(w, "%-15s %12s %12s %10s %10s\n",
		"Application", "32KB FIFO", "1KB FIFO", "Delta", "HighWater")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12s %12s %9.2f%% %9dB\n",
			r.App, fsec(r.Large), fsec(r.Small), r.Percent, r.HighWater)
	}
	fmt.Fprintln(w, "paper: no detectable difference")
}

// PrintDUQueue renders the §4.5.3 results.
func PrintDUQueue(w io.Writer, rows []DUQueueRow) {
	header(w, "§4.5.3: deliberate-update request queueing (depth 1 vs 2)")
	fmt.Fprintf(w, "%-15s %12s %12s %10s\n", "Application", "Depth 1", "Depth 2", "Gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12s %12s %9.2f%%\n",
			r.App, fsec(r.Depth1), fsec(r.Depth2), r.Percent)
	}
	fmt.Fprintln(w, "paper: within 1% (memory bus cannot cycle-share)")
}

// PrintLatency renders the microbenchmarks.
func PrintLatency(w io.Writer, got LatencyResult) {
	ref := PaperLatency()
	header(w, "§4.1/§4.2: latency microbenchmarks")
	row := func(name string, g, r interface{ Micros() float64 }, rel string) {
		fmt.Fprintf(w, "%-28s %8.2fus   (paper: %s%.2fus)\n", name, g.Micros(), rel, r.Micros())
	}
	row("DU small-message latency", got.DUSmall, ref.DUSmall, "")
	row("AU single-word latency", got.AUWord, ref.AUWord, "")
	row("DU send overhead", got.SendOverhead, ref.SendOverhead, "< ")
	row("Myrinet-like system latency", got.MyrinetLike, ref.MyrinetLike, "~")
}

// PrintPerPacket renders the per-packet-interrupt extension experiment.
func PrintPerPacket(w io.Writer, rows []PerPacketRow) {
	header(w, "Extension (§4.4): interrupt per packet vs per message")
	fmt.Fprintf(w, "%-15s %12s %10s %10s\n",
		"Application", "Baseline", "Per-msg", "Per-pkt")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12s %9.1f%% %9.1f%%\n",
			r.App, fsec(r.Baseline), r.MsgPct, r.PktPct)
	}
	fmt.Fprintln(w, `paper: "overheads will be even higher in some cases"`)
}
