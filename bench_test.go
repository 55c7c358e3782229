// Benchmarks: BenchmarkExperiments has one sub-benchmark per table and
// figure of the paper's evaluation (one per registry experiment). Each
// iteration regenerates the experiment on a reduced configuration (4
// nodes, small workloads) so `go test -bench=.` completes quickly;
// `cmd/shrimpbench` runs the full 16-node versions.
package repro_test

import (
	"reflect"
	"testing"

	"shrimp/internal/harness"
	"shrimp/internal/svm"
)

// benchConfig is the reduced configuration used by the benchmarks.
func benchConfig() harness.Config {
	return harness.Config{Nodes: 4, Workloads: harness.QuickWorkloads()}
}

// BenchmarkExperiments regenerates every registry experiment, one
// sub-benchmark per entry (hidden ones included), and checks that each
// produced its rows. The Figure 4 entries also check the paper's headline
// directions: AURC beats HLRC on Radix-SVM, and Radix-VMMC runs faster
// under automatic update than deliberate update.
func BenchmarkExperiments(b *testing.B) {
	cfg := benchConfig()
	// One row (or curve) per application, where the grid covers them all.
	wantRows := map[string]int{"table1": int(harness.NumApps), "table3": int(harness.NumApps),
		"table4": int(harness.NumApps), "figure3": 6}
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := e.Run(cfg)
				if v := reflect.ValueOf(rows); v.Kind() == reflect.Slice {
					if want, ok := wantRows[e.Name]; ok && v.Len() != want {
						b.Fatalf("%d rows, want %d", v.Len(), want)
					}
					if v.Len() == 0 {
						b.Fatal("no rows")
					}
				}
				switch rs := rows.(type) {
				case harness.LatencyResult:
					if rs.DUSmall <= 0 {
						b.Fatal("bad latency")
					}
				case []harness.Figure4SVMRow:
					if harness.AURCGain(rs)[harness.RadixSVM] <= 0 {
						b.Fatal("AURC regression")
					}
				case []harness.Figure4AUDURow:
					for _, r := range rs {
						if r.App == harness.RadixVMMC && r.AUSpeedup <= 1 {
							b.Fatal("Radix-VMMC AU regression")
						}
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: events per
// wall-clock second on one representative workload (an ablation aid for
// the DES engine itself).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := harness.QuickWorkloads()
	for i := 0; i < b.N; i++ {
		res := harness.Run(harness.Spec{App: harness.RadixSVM, Nodes: 4,
			Variant: harness.VariantAU}, &w)
		if res.Elapsed <= 0 {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkProtocolAblation compares the three SVM protocols on the
// false-sharing-heavy Radix kernel — the design-choice ablation behind
// Figure 4 (left).
func BenchmarkProtocolAblation(b *testing.B) {
	w := harness.QuickWorkloads()
	for _, proto := range []svm.Protocol{svm.HLRC, svm.HLRCAU, svm.AURC} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := harness.Run(harness.Spec{App: harness.RadixSVM, Nodes: 4,
					Protocol: &proto}, &w)
				if res.Elapsed <= 0 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

// BenchmarkMachineScaling runs one application across machine sizes —
// the Figure 3 ablation in benchmark form.
func BenchmarkMachineScaling(b *testing.B) {
	w := harness.QuickWorkloads()
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(machineName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := harness.Run(harness.Spec{App: harness.OceanNX, Nodes: n,
					Variant: harness.VariantDU}, &w)
				if res.Elapsed <= 0 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

func machineName(n int) string {
	return map[int]string{1: "1node", 2: "2nodes", 4: "4nodes", 8: "8nodes"}[n]
}
