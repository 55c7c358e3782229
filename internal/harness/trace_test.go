package harness

import (
	"bytes"
	"strings"
	"testing"

	"shrimp/internal/svm"
	"shrimp/internal/trace"
)

// traceSpec is the representative traced cell used by these tests:
// small enough to run in milliseconds, busy enough to exercise the
// mesh, NIC and notification paths.
func traceSpec() Spec {
	return Spec{App: RadixVMMC, Nodes: 4, Variant: VariantAU,
		Trace: &trace.Options{}}
}

func renderTrace(t *testing.T, res Result, label string) (chrome, ndjson string) {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("traced run returned no recorder")
	}
	var c, n bytes.Buffer
	if err := trace.WriteChrome(&c, []*trace.Recorder{res.Trace}, []string{label}); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteNDJSON(&n, []*trace.Recorder{res.Trace}, []string{label}); err != nil {
		t.Fatal(err)
	}
	return c.String(), n.String()
}

// TestTraceDeterministicAcrossRuns pins the headline guarantee: two
// runs of the same traced cell produce byte-identical exports.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	wl := QuickWorkloads()
	spec := traceSpec()
	c1, n1 := renderTrace(t, Run(spec, &wl), spec.Label())
	c2, n2 := renderTrace(t, Run(spec, &wl), spec.Label())
	if c1 != c2 {
		t.Fatal("chrome exports differ across identical runs")
	}
	if n1 != n2 {
		t.Fatal("ndjson exports differ across identical runs")
	}
	if !strings.Contains(n1, `"kind":"pkt-send"`) {
		t.Fatal("trace recorded no packet traffic")
	}
}

// TestTraceDeterministicAcrossWorkers runs the same traced cells
// serially and on a multi-worker pool: recorders come back by cell
// index, so the exports must be byte-identical.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	wl := QuickWorkloads()
	render := func(workers int) string {
		cells := []Spec{traceSpec(), traceSpec(), traceSpec()}
		results := RunCells(nil, cells, &wl, CellRunOpts{Workers: workers})
		var recs []*trace.Recorder
		var labels []string
		for i := range results {
			recs = append(recs, results[i].Trace)
			labels = append(labels, cells[i].Label())
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, recs, labels); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(3)
	if serial != parallel {
		t.Fatal("trace exports depend on the worker count")
	}
}

// TestTracingDoesNotPerturbResults asserts the observer effect is nil:
// a traced run reports exactly the results of an untraced one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	wl := QuickWorkloads()
	spec := traceSpec()
	traced := Run(spec, &wl)
	if traced.Trace == nil || len(traced.Trace.Events()) == 0 {
		t.Fatal("traced run recorded nothing")
	}

	plain := spec
	plain.Trace = nil
	untraced := Run(plain, &wl)

	traced.Trace = nil // the recorder is the only field allowed to differ
	if traced != untraced {
		t.Fatalf("tracing perturbed the simulation:\ntraced:   %+v\nuntraced: %+v",
			traced, untraced)
	}
}

// TestTraceFilterLimitsKinds runs a traced cell with a narrow filter
// and checks nothing outside it is recorded while latency histograms
// still populate (they are filter-independent).
func TestTraceFilterLimitsKinds(t *testing.T) {
	wl := QuickWorkloads()
	mask, err := trace.ParseFilter("pkt-send,pkt-recv")
	if err != nil {
		t.Fatal(err)
	}
	spec := traceSpec()
	spec.Trace = &trace.Options{Filter: mask}
	res := Run(spec, &wl)
	if len(res.Trace.Events()) == 0 {
		t.Fatal("filtered trace recorded nothing")
	}
	for _, ev := range res.Trace.Events() {
		if ev.Kind != trace.KPktSend && ev.Kind != trace.KPktRecv {
			t.Fatalf("filter leaked kind %v", ev.Kind)
		}
	}
	if res.Trace.Hist(trace.LatMesh).Count() == 0 {
		t.Fatal("latency histograms must populate independent of the filter")
	}
}

// TestTraceSummaryFromRun checks the end-of-run summary carries real
// measurements: populated latency classes and per-link utilization.
func TestTraceSummaryFromRun(t *testing.T) {
	wl := QuickWorkloads()
	spec := traceSpec()
	res := Run(spec, &wl)

	if res.Trace.Hist(trace.LatMesh).Count() == 0 {
		t.Fatal("no mesh latency samples")
	}
	if res.Trace.Hist(trace.LatAU).Count() == 0 {
		t.Fatal("no AU latency samples")
	}
	links := res.Trace.LinkUtils()
	if len(links) == 0 {
		t.Fatal("no per-link utilization captured")
	}
	for _, l := range links {
		if l.Busy <= 0 || l.Elapsed <= 0 || l.Busy > l.Elapsed {
			t.Fatalf("implausible link util %+v", l)
		}
	}

	var buf bytes.Buffer
	trace.WriteSummary(&buf, res.Trace, spec.Label())
	out := buf.String()
	for _, want := range []string{"p50", "p90", "p99", "per-link utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestConfigTraceSinkOrder checks the sweep-level plumbing: every cell
// gets a recorder and the sink sees them in cell order for any worker
// count.
func TestConfigTraceSinkOrder(t *testing.T) {
	run := func(workers int) []string {
		cfg := Config{Nodes: 4, Workloads: QuickWorkloads(), Workers: workers,
			Trace: &trace.Options{}}
		var labels []string
		cfg.TraceSink = func(cell Spec, rec *trace.Recorder) {
			if rec == nil || len(rec.Events()) == 0 {
				t.Errorf("sink got an empty recorder for %s", cell.Label())
			}
			labels = append(labels, cell.Label())
		}
		Figure4AUDU(cfg)
		return labels
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) == 0 {
		t.Fatal("sink never called")
	}
	if strings.Join(serial, ";") != strings.Join(parallel, ";") {
		t.Fatalf("sink order depends on workers:\nserial:   %v\nparallel: %v",
			serial, parallel)
	}
}

func TestSpecLabel(t *testing.T) {
	s := Spec{App: RadixVMMC, Nodes: 4, Variant: VariantAU}
	if got := s.Label(); got != "Radix-VMMC/AU/n4" {
		t.Fatalf("label %q", got)
	}
	p := svm.AURC
	s = Spec{App: BarnesSVM, Nodes: 16, Variant: VariantDU, Protocol: &p}
	if got := s.Label(); got != "Barnes-SVM/AURC/n16" {
		t.Fatalf("protocol label %q", got)
	}
}
