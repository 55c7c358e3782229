package harness

import (
	"testing"

	"shrimp/internal/sim"
)

// TestCellCensus pins the engine's dispatch census for the quick 16-node
// cells whose hottest waits run as steps: Radix-VMMC's AU key scatter
// and Radix-SVM's permutation store through word runs, and the
// uncombined DFS-sockets cell polls its rings with Export.WaitFor. It is
// a deterministic stand-in for their host cost: a change that sends
// those wakeups back through process switches moves the handoff count
// without any timing, and the fn events must not move at all. Before
// the steps these cells took 28,650, 43,334 and 622,787 handoffs.
func TestCellCensus(t *testing.T) {
	w := QuickWorkloads()
	off := false
	for _, c := range []struct {
		cell CellSpec
		want sim.Census
	}{
		{CellSpec{App: "radix-vmmc", Nodes: 16, Variant: "AU"},
			sim.Census{Handoffs: 5550, SelfWakeups: 2210, FnEvents: 172660, Steps: 22951}},
		{CellSpec{App: "radix-svm", Nodes: 16, Variant: "AU"},
			sim.Census{Handoffs: 18182, SelfWakeups: 6403, FnEvents: 213534, Steps: 26951}},
		{CellSpec{App: "dfs-sockets", Nodes: 16, Variant: "AU", Knobs: Knobs{Combining: &off}},
			sim.Census{Handoffs: 3966, SelfWakeups: 1080, FnEvents: 2707936, Steps: 1133341}},
	} {
		spec, err := c.cell.Compile()
		if err != nil {
			t.Fatal(err)
		}
		_, got := runCensus(spec, &w)
		if got != c.want {
			t.Errorf("%s: census %+v, want %+v", spec.Label(), got, c.want)
		}
		if got.Steps <= got.Handoffs {
			t.Errorf("%s: %d step wakeups against %d handoffs: want more steps", spec.Label(), got.Steps, got.Handoffs)
		}
	}
}
