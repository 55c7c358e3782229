package harness

import (
	"testing"

	"shrimp/internal/sim"
)

// dispatched is how many wakeups and fn events a census counts in all.
// Steps, skips and word runs change how a wakeup is dispatched, never
// whether it is, so it stays the same across those changes.
func dispatched(c sim.Census) uint64 {
	return c.Handoffs + c.SelfWakeups + c.FnEvents + c.Steps + c.Skips
}

// TestCellCensus pins the engine's dispatch census for the quick 16-node
// cells whose hottest waits run as steps: Radix-VMMC's AU key scatter,
// Radix-SVM's key initialization and permutation, and Ocean-SVM's
// stencil store through word runs; the uncombined DFS-sockets cell
// polls its rings with Export.WaitFor; Barnes-NX/DU's ring writes queue
// their DU transfers in steps. It is a deterministic stand-in for their
// host cost: a change that sends those wakeups back through process
// switches or the calendar moves the counts without any timing. total
// is the cell's dispatch count, which no such change may move. Before
// the steps these cells took 28,650, 43,334, 18,886, 622,787 and 17,191
// handoffs.
func TestCellCensus(t *testing.T) {
	w := QuickWorkloads()
	off := false
	for _, c := range []struct {
		cell  CellSpec
		want  sim.Census
		total uint64
	}{
		{CellSpec{App: "radix-vmmc", Nodes: 16, Variant: "AU"},
			sim.Census{Handoffs: 1820, SelfWakeups: 166, FnEvents: 171754, Steps: 27806, Skips: 1825}, 203371},
		{CellSpec{App: "radix-svm", Nodes: 16, Variant: "AU"},
			sim.Census{Handoffs: 10278, SelfWakeups: 1198, FnEvents: 199764, Steps: 37663, Skips: 16167}, 265070},
		{CellSpec{App: "ocean-svm", Nodes: 16, Variant: "AU"},
			sim.Census{Handoffs: 5342, SelfWakeups: 868, FnEvents: 98253, Steps: 17580, Skips: 7994}, 130037},
		{CellSpec{App: "dfs-sockets", Nodes: 16, Variant: "AU", Knobs: Knobs{Combining: &off}},
			sim.Census{Handoffs: 3966, SelfWakeups: 1080, FnEvents: 2613685, Steps: 954027, Skips: 273565}, 3846323},
		{CellSpec{App: "barnes-nx", Nodes: 16, Variant: "DU"},
			sim.Census{Handoffs: 5651, SelfWakeups: 464, FnEvents: 53404, Steps: 11518, Skips: 1029}, 72066},
	} {
		spec, err := c.cell.Compile()
		if err != nil {
			t.Fatal(err)
		}
		_, got := runCensus(spec, &w)
		if got != c.want {
			t.Errorf("%s: census %+v, want %+v", spec.Label(), got, c.want)
		}
		if dispatched(got) != c.total {
			t.Errorf("%s: %d wakeups and fn events dispatched, want %d", spec.Label(), dispatched(got), c.total)
		}
		if got.Steps <= got.Handoffs {
			t.Errorf("%s: %d step wakeups against %d handoffs: want more steps", spec.Label(), got.Steps, got.Handoffs)
		}
	}
}
