package checkpoint_test

import (
	"strings"
	"sync"
	"testing"

	"shrimp/internal/analysis/load"
	"shrimp/internal/analysis/snapshotcover"
)

// snapshotted pins the checkpoint state inventory: every struct type,
// as package.Type, that the snapshotcover analyzer treats as
// snapshotted state — the receivers of a snapshot.go Snapshot/Restore
// pair plus every //shrimp:state mark — across the internal packages a
// checkpoint captures. The analyzer already fails on any unclassified
// field of these types; this pin catches the dual gap, a type dropping
// out of the inventory (a deleted //shrimp:state mark or side
// function), which would silently shrink coverage.
var snapshotted = []string{
	"machine.CPU", "machine.Machine", "machine.Node", "machine.Snapshot", "machine.cpuState",
	"memory.AddressSpace", "memory.Snapshot", "memory.page", "memory.pageMeta",
	"mesh.Network", "mesh.NetworkSnapshot", "mesh.link", "mesh.linkState",
	"nic.NIC", "nic.NICSnapshot",
	"ring.Ring", "ring.Snapshot",
	"sim.Engine", "sim.EngineSnapshot",
	"svm.Runtime", "svm.System", "svm.SystemSnapshot", "svm.barrierState", "svm.lockSnap",
	"svm.lockState", "svm.msgParser", "svm.pageState", "svm.runtimeState",
	"vmmc.Endpoint", "vmmc.EndpointSnapshot", "vmmc.Export", "vmmc.System",
	"vmmc.SystemSnapshot", "vmmc.exportState",
}

var (
	inventoryOnce sync.Once
	inventory     map[string]map[string]string // "package.Type" -> field -> static class
	inventoryErr  error
)

// staticInventory loads the checkpointed packages once and returns the
// snapshotcover inventory over them.
func staticInventory(t *testing.T) map[string]map[string]string {
	t.Helper()
	inventoryOnce.Do(func() {
		var paths []string
		seen := map[string]bool{}
		for _, key := range snapshotted {
			pkg, _, _ := strings.Cut(key, ".")
			if p := "shrimp/internal/" + pkg; !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
		pkgs, err := load.List("../..", paths...)
		if err != nil {
			inventoryErr = err
			return
		}
		inventory = map[string]map[string]string{}
		for _, pkg := range pkgs {
			if !seen[pkg.Path] {
				continue // a dependency, not a checkpointed package
			}
			for _, fc := range snapshotcover.Inventory(pkg) {
				key := pkg.Types.Name() + "." + fc.Type
				if inventory[key] == nil {
					inventory[key] = map[string]string{}
				}
				inventory[key][fc.Field] = fc.Class
			}
		}
	})
	if inventoryErr != nil {
		t.Fatalf("loading checkpointed packages: %v", inventoryErr)
	}
	return inventory
}

// TestStaticCoverageMatches checks that the set of struct types the
// static inventory treats as snapshotted is exactly the pinned set: no
// pinned type dropped out, and no type joined without being pinned.
func TestStaticCoverageMatches(t *testing.T) {
	found := staticInventory(t)
	pinned := map[string]bool{}
	for _, key := range snapshotted {
		pinned[key] = true
		if _, ok := found[key]; !ok {
			t.Errorf("%s dropped out of the checkpoint inventory: restore its //shrimp:state mark or snapshot.go side function, or unpin it deliberately", key)
		}
	}
	for key := range found {
		if !pinned[key] {
			t.Errorf("%s is snapshotted state but not pinned; add it to the snapshotted list", key)
		}
	}
}

// TestSnapshotCompleteness checks each pinned type field by field: it
// is still snapshotted and every field is classified (captured,
// asserted or wiring).
func TestSnapshotCompleteness(t *testing.T) {
	found := staticInventory(t)
	for _, key := range snapshotted {
		t.Run(key, func(t *testing.T) {
			fields, ok := found[key]
			if !ok {
				t.Fatalf("%s dropped out of the checkpoint inventory", key)
			}
			for field, class := range fields {
				if class == "uncovered" {
					t.Errorf("%s.%s has no checkpoint classification: capture and restore it in snapshot.go or annotate it //shrimp:nostate <class>: <why>", key, field)
				}
			}
		})
	}
}
