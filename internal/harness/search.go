package harness

import (
	"fmt"
	"io"
	"sort"

	"shrimp/internal/sim"
)

// SearchResult is the outcome of a twin-guided sweep search over one
// cell grid: the twin ranked every cell, the simulator confirmed only
// the most promising ones.
type SearchResult struct {
	// Scanned is the number of cells the twin evaluated; Confirmed the
	// subset the simulator actually ran.
	Scanned   int
	Confirmed int
	// Best is the cell with the lowest simulated elapsed time among the
	// confirmed set, with both estimates attached.
	Best     CellSpec
	BestTwin sim.Time
	BestSim  sim.Time
	// Ranked lists the confirmed cells in simulated order (fastest
	// first), each with its original grid index.
	Ranked []SearchCell
}

// SearchCell is one confirmed cell of a guided search.
type SearchCell struct {
	Index int      `json:"index"`
	Cell  CellSpec `json:"cell"`
	Twin  sim.Time `json:"twin_ns"`
	Sim   sim.Time `json:"sim_ns"`
}

// TwinGuidedSearch scans cells with the analytical twin, picks the
// top-k by predicted elapsed time, and confirms only those with the
// simulator (k <= 0 selects a quarter of the grid, minimum one). The
// confirmation pass goes through cfg.runCells, so it composes with the
// sweep's cache and workers. Ties and ordering are
// broken by grid index, keeping the result independent of the worker
// count.
func TwinGuidedSearch(cfg Config, cells []CellSpec, k int) (SearchResult, error) {
	var res SearchResult
	if len(cells) == 0 {
		return res, fmt.Errorf("harness: empty search grid")
	}
	if k <= 0 {
		k = (len(cells) + 3) / 4
	}
	if k > len(cells) {
		k = len(cells)
	}
	tp := NewPredictor(&cfg.Workloads)
	type scored struct {
		idx  int
		pred sim.Time
	}
	preds := make([]scored, len(cells))
	for i, c := range cells {
		t, err := tp.PredictCell(c)
		if err != nil {
			return res, fmt.Errorf("harness: search cell %d: %w", i, err)
		}
		preds[i] = scored{idx: i, pred: t}
	}
	res.Scanned = len(cells)
	sort.SliceStable(preds, func(i, j int) bool {
		if preds[i].pred != preds[j].pred {
			return preds[i].pred < preds[j].pred
		}
		return preds[i].idx < preds[j].idx
	})
	top := preds[:k]
	// Re-sort the shortlist by grid index so the confirmation pass runs
	// cells in catalog order, so cache traffic and trace order stay
	// stable.
	sort.Slice(top, func(i, j int) bool { return top[i].idx < top[j].idx })
	shortlist := make([]CellSpec, k)
	for i, s := range top {
		shortlist[i] = cells[s.idx]
	}
	results := cfg.runCells(shortlist)
	res.Confirmed = k
	res.Ranked = make([]SearchCell, k)
	for i, s := range top {
		res.Ranked[i] = SearchCell{Index: s.idx, Cell: cells[s.idx], Twin: s.pred, Sim: results[i].Elapsed}
	}
	sort.SliceStable(res.Ranked, func(i, j int) bool {
		if res.Ranked[i].Sim != res.Ranked[j].Sim {
			return res.Ranked[i].Sim < res.Ranked[j].Sim
		}
		return res.Ranked[i].Index < res.Ranked[j].Index
	})
	best := res.Ranked[0]
	res.Best, res.BestTwin, res.BestSim = best.Cell, best.Twin, best.Sim
	return res, nil
}

// SearchGrid builds the large knob grid the twin-guided search scans
// for one application: the cross product of the syscall, interrupt,
// combining, FIFO-threshold and DU-queue-depth what-ifs at a fixed
// machine size. 72 cells per app — cheap for the twin, expensive for
// the simulator, which is the point.
func SearchGrid(app App, variant Variant, nodes int) []CellSpec {
	var cells []CellSpec
	v := variant.String()
	for _, sys := range []bool{false, true} {
		for _, intr := range []string{"none", "msg", "pkt"} {
			for _, comb := range []bool{true, false} {
				for _, thresh := range []int{24 * 1024, 768, 256} {
					for _, duq := range []int{1, 8} {
						k := Knobs{
							SyscallPerSend: bptr(sys),
							Combining:      bptr(comb),
							DUQueueDepth:   iptr(duq),
						}
						switch intr {
						case "msg":
							k.InterruptPerMessage = bptr(true)
						case "pkt":
							k.InterruptPerPacket = bptr(true)
						}
						if thresh != 24*1024 {
							k.FIFOThresholdBytes = iptr(thresh)
							if low := thresh / 3; low > 0 {
								k.FIFOLowWaterBytes = iptr(low)
							}
						}
						cells = append(cells, CellSpec{
							App:     app.String(),
							Nodes:   nodes,
							Variant: v,
							Knobs:   k,
						})
					}
				}
			}
		}
	}
	return cells
}

// PrintSearch renders a guided-search result.
func PrintSearch(w io.Writer, name string, res SearchResult) {
	header(w, fmt.Sprintf("Twin-guided search: %s", name))
	fmt.Fprintf(w, "scanned %d cells with the twin, confirmed %d with the simulator (%.0f%%)\n",
		res.Scanned, res.Confirmed, float64(res.Confirmed)/float64(res.Scanned)*100)
	fmt.Fprintf(w, "%4s %-44s %14s %14s\n", "Rank", "Cell", "Twin us", "Sim us")
	for i, c := range res.Ranked {
		label := c.Cell.App + "/" + c.Cell.Variant
		if c.Cell.Variant == "" {
			label = c.Cell.App
		}
		fmt.Fprintf(w, "%4d %-44s %14.3f %14.3f\n",
			i+1, fmt.Sprintf("%s/n%d%s", label, c.Cell.Nodes, knobTag(c.Cell.Knobs)),
			usec(c.Twin), usec(c.Sim))
	}
}
