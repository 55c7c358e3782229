package radix

import (
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/svm"
	"shrimp/internal/vmmc"
)

func smallParams() Params {
	p := DefaultParams()
	p.Keys = 4096
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(smallParams())
	b := generate(smallParams())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("key generation not deterministic")
		}
	}
}

func TestDigitDecomposition(t *testing.T) {
	pr := smallParams() // radix 256, 3 iters
	k := uint32(0x00cafe42)
	if digit(k, 0, 256) != 0x42 || digit(k, 1, 256) != 0xfe || digit(k, 2, 256) != 0xca {
		t.Fatalf("digits = %x %x %x", digit(k, 0, 256), digit(k, 1, 256), digit(k, 2, 256))
	}
	_ = pr
}

func TestSplitCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 100, 4096} {
		for _, p := range []int{1, 2, 3, 16} {
			total := 0
			prevHi := 0
			for r := 0; r < p; r++ {
				lo, hi := split(n, p, r)
				if lo != prevHi {
					t.Fatalf("split gap at rank %d", r)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n {
				t.Fatalf("split(%d,%d) covers %d", n, p, total)
			}
		}
	}
}

func runSVMTest(t *testing.T, nodes int, proto svm.Protocol) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	defer m.Close()
	pr := smallParams()
	s := svm.New(vmmc.NewSystem(m), svm.DefaultConfig(proto, SVMRegionBytes(pr, nodes)))
	if el := RunSVM(s, pr); el <= 0 {
		t.Fatal("non-positive elapsed time")
	}
	// RunSVM panics on an unsorted or corrupted result.
}

// TestSVMRegionFitsLayout lays Radix-SVM's shared arrays out in the
// region SVMRegionBytes sizes, at node counts past the 144 ranks a
// fixed 512 KB histogram reserve holds. It builds no machine: the
// layout only needs the region's page count.
func TestSVMRegionFitsLayout(t *testing.T) {
	for _, pr := range []Params{smallParams(), DefaultParams()} {
		for _, nodes := range []int{1, 16, 144, 145, 1024} {
			s := &svm.System{Pages: (SVMRegionBytes(pr, nodes) + svm.PageSize - 1) / svm.PageSize}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%d keys, %d nodes: %v", pr.Keys, nodes, r)
					}
				}()
				svmLayout(s, pr, nodes)
			}()
		}
	}
}

func TestRadixSVMSingleNode(t *testing.T) { runSVMTest(t, 1, svm.HLRC) }

func TestRadixSVMHLRC(t *testing.T)   { runSVMTest(t, 4, svm.HLRC) }
func TestRadixSVMHLRCAU(t *testing.T) { runSVMTest(t, 4, svm.HLRCAU) }
func TestRadixSVMAURC(t *testing.T)   { runSVMTest(t, 4, svm.AURC) }

func runVMMCTest(t *testing.T, nodes int, mech Mechanism) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	defer m.Close()
	sys := vmmc.NewSystem(m)
	if el := RunVMMC(sys, mech, smallParams()); el <= 0 {
		t.Fatal("non-positive elapsed time")
	}
}

func TestRadixVMMCSingleNode(t *testing.T) { runVMMCTest(t, 1, AU) }
func TestRadixVMMCAU(t *testing.T)         { runVMMCTest(t, 4, AU) }
func TestRadixVMMCDU(t *testing.T)         { runVMMCTest(t, 4, DU) }

func TestRadixVMMCAUFasterThanDU(t *testing.T) {
	// Figure 4 (right): the automatic-update version of Radix-VMMC
	// beats deliberate update (paper: 3.4x at 16 nodes).
	elapsed := func(mech Mechanism) int64 {
		m := machine.New(machine.DefaultConfig(8))
		defer m.Close()
		return int64(RunVMMC(vmmc.NewSystem(m), mech, smallParams()))
	}
	au := elapsed(AU)
	du := elapsed(DU)
	if au >= du {
		t.Fatalf("AU (%d) not faster than DU (%d)", au, du)
	}
}
