package harness

import (
	"fmt"
	"io"
)

// TwinRow is one analytical-twin prediction: a cell of an experiment
// grid (or one latency microbenchmark) and its predicted elapsed time.
type TwinRow struct {
	Cell   string  `json:"cell"`
	TwinUs float64 `json:"twin_us"`
}

// TwinRows evaluates an experiment entirely with the analytical twin —
// no simulation runs. Cells-bearing experiments yield one TwinRow per
// grid cell; latency yields its four microbenchmark scalars; the load
// experiment yields one TwinLoadRow per cell and class (with the
// occupancy estimates the closed-form M/G/1 model adds).
func TwinRows(cfg Config, e Experiment) (any, error) {
	if e.twin.rows == nil {
		return nil, fmt.Errorf("harness: experiment %q has no twin evaluation", e.Name)
	}
	return e.twin.rows(cfg, NewPredictor(&cfg.Workloads))
}

// predictCells predicts every cell of a grid.
func predictCells(tp *Predictor, cells []CellSpec) (any, error) {
	rows := make([]TwinRow, 0, len(cells))
	for _, c := range cells {
		spec, err := c.Compile()
		if err != nil {
			return nil, err
		}
		rows = append(rows, TwinRow{Cell: spec.Label() + knobTag(c.Knobs), TwinUs: round3(usec(tp.PredictSpec(spec)))})
	}
	return rows, nil
}

// predictLatency predicts the four microbenchmark scalars.
func predictLatency(_ Config, tp *Predictor) (any, error) {
	pred := tp.PredictLatency().scalars()
	rows := make([]TwinRow, len(pred))
	for i, t := range pred {
		rows[i] = TwinRow{Cell: latencyLabels[i], TwinUs: round3(usec(t))}
	}
	return rows, nil
}

// predictLoad predicts every class of every load cell.
func predictLoad(cfg Config, _ *Predictor) (any, error) {
	var rows []TwinLoadRow
	for _, c := range LoadCells(cfg) {
		pred, err := c.Predict()
		if err != nil {
			return nil, err
		}
		rows = append(rows, pred...)
	}
	return rows, nil
}

// PrintTwinRows renders twin predictions for one experiment.
func PrintTwinRows(w io.Writer, e Experiment, rows any) {
	header(w, fmt.Sprintf("Twin predictions: %s (no simulation)", e.Name))
	e.twin.print(w, rows)
}

// printTwinRows renders TwinRow predictions.
func printTwinRows(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-44s %14s\n", "Cell", "Twin us")
	for _, r := range rows.([]TwinRow) {
		fmt.Fprintf(w, "%-44s %14.3f\n", r.Cell, r.TwinUs)
	}
}

// printTwinLoad renders TwinLoadRow predictions.
func printTwinLoad(w io.Writer, rows any) {
	fmt.Fprintf(w, "%-10s %6s %8s %-8s %12s %14s\n",
		"Config", "Nodes", "Offered", "Class", "Utilization", "Sojourn us")
	for _, r := range rows.([]TwinLoadRow) {
		fmt.Fprintf(w, "%-10s %6d %8.2f %-8s %12.3f %14.3f\n",
			r.Config, r.Nodes, r.Offered, r.Class, r.Utilization, usec(r.MeanSojourn))
	}
}
