package harness

import (
	"bytes"
	"testing"
)

// calibrationBytes runs a full calibration with the given worker count,
// rendering both the text report and the JSON rows.
func calibrationBytes(t *testing.T, workers int) (string, string) {
	t.Helper()
	cfg := DefaultExperimentConfig()
	cfg.Workloads = QuickWorkloads()
	cfg.Nodes = 4
	cfg.Workers = workers
	rep := Calibrate(cfg)
	var text, js bytes.Buffer
	PrintCalibration(&text, rep)
	if err := EmitJSON(&js, "calibration", rep.Rows); err != nil {
		t.Fatal(err)
	}
	return text.String(), js.String()
}

// TestCalibrationDeterminism requires the calibration report — the
// standing CI artifact — to be byte-identical whatever the worker
// count. This is the
// same invariant the golden digests pin for the report tables,
// extended to the twin-vs-DES comparison.
func TestCalibrationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick calibration twice")
	}
	baseText, baseJSON := calibrationBytes(t, 1)
	text, js := calibrationBytes(t, 8)
	if text != baseText {
		t.Error("text report differs at workers=8 from serial run")
	}
	if js != baseJSON {
		t.Error("JSON report differs at workers=8 from serial run")
	}
}

// TestCalibrationCoversRegistry checks the calibration sweeps every
// registry experiment — hidden ones included — in catalog order, with
// at least one twin/sim pair and a sane error summary each.
func TestCalibrationCoversRegistry(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Workloads = QuickWorkloads()
	cfg.Nodes = 2
	rep := Calibrate(cfg)
	exps := Experiments()
	if len(rep.Rows) != len(exps) {
		t.Fatalf("calibration has %d rows, registry has %d experiments",
			len(rep.Rows), len(exps))
	}
	total := 0
	for i, row := range rep.Rows {
		if row.Experiment != exps[i].Name {
			t.Errorf("row %d is %q, want %q (catalog order)", i, row.Experiment, exps[i].Name)
		}
		if len(row.Pairs) == 0 {
			t.Errorf("%s: no twin/sim pairs", row.Experiment)
		}
		if row.MAPE < 0 {
			t.Errorf("%s: negative MAPE %.2f", row.Experiment, row.MAPE)
		}
		if row.RankCorr < -1.000001 || row.RankCorr > 1.000001 {
			t.Errorf("%s: rank correlation %.3f out of [-1,1]", row.Experiment, row.RankCorr)
		}
		total += len(row.Pairs)
	}
	if rep.Pairs != total {
		t.Errorf("report says %d pairs, rows hold %d", rep.Pairs, total)
	}
}

// TestPrintCatalogGolden pins the -exp list output, including the
// hidden-experiment marker.
func TestPrintCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	PrintCatalog(&buf)
	checkGolden(t, "catalog", buf.Bytes())
}

// TestSpearman covers the rank-correlation helper on known orderings.
func TestSpearman(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"agree", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"reverse", []float64{1, 2, 3, 4}, []float64{40, 30, 20, 10}, -1},
		{"constant", []float64{1, 2, 3}, []float64{5, 5, 5}, 1},
		{"short", []float64{7}, []float64{3}, 1},
	}
	for _, c := range cases {
		if got := spearman(c.a, c.b); !(got > c.want-1e-9 && got < c.want+1e-9) {
			t.Errorf("%s: spearman = %v, want %v", c.name, got, c.want)
		}
	}
}
