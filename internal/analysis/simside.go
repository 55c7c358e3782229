package analysis

import "strings"

// simSidePkgs names the packages that live inside the simulated
// machine: their code runs under the discrete-event engine, so the
// determinism invariants (no wall clock, no unseeded randomness, no
// stray goroutines, order-independent iteration) apply in full. The
// harness, profiler glue and command binaries sit outside the
// simulation boundary and may read real clocks or fan out goroutines.
var simSidePkgs = map[string]bool{
	"sim":       true,
	"mesh":      true,
	"nic":       true,
	"vmmc":      true,
	"svm":       true,
	"machine":   true,
	"memory":    true,
	"trace":     true,
	"nx":        true,
	"ring":      true,
	"rpc":       true,
	"socketlib": true,
	"stats":     true,
	"apps":      true, // and all subpackages
	"workload":  true, // open-loop traffic generator: drivers run inside the simulated machine
	"twin":      true, // closed-form analytical model: pure functions of simulated time, same invariants
}

// hostSidePkgs names the packages that are explicitly host-side: they
// serve, cache or orchestrate simulations from outside the simulated
// machine, so ordinary server idioms — goroutines per connection, wall
// clocks for job timestamps, crypto/rand — are part of their job.
// Sim-side rules gated on IsSimSide never applied to them (they fail
// IsSimSide), but globally-enforced rules such as nogoroutine consult
// IsHostSide to exempt whole packages rather than single files.
// Keys are module-relative paths; subpackages inherit the
// classification. A package must never appear in both maps: the
// boundary is what makes "is this code allowed to observe the host?"
// a one-lookup question.
var hostSidePkgs = map[string]bool{
	"cmd/shrimpd":          true, // simulation-as-a-service daemon
	"internal/resultcache": true, // content-addressed result cache
	"internal/server":      true, // HTTP job queue and streaming API
}

// spawnPkgs names the packages that may create simulation processes
// (sim.Engine.Spawn/SpawnAt). Everything below the machine layer runs
// as continuation state machines. Keys are module-relative paths of
// exactly these packages; subpackages are not included.
var spawnPkgs = map[string]bool{
	"internal/sim":     true, // Spawn's own implementation and timers
	"internal/machine": true, // app processes: the blocking style is the API
}

const (
	modulePrefix   = "shrimp/"
	internalPrefix = "shrimp/internal/"
)

// IsSimSide reports whether the package at importPath is inside the
// simulation boundary. Fixture packages under the analyzers' testdata
// trees use the same shrimp/internal/... paths, so the rules apply to
// them identically.
func IsSimSide(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, internalPrefix)
	if !ok {
		return false
	}
	head, _, _ := strings.Cut(rest, "/")
	return simSidePkgs[head]
}

// IsHostSide reports whether the package at importPath (or an ancestor
// within the module) is classified host-side: free to spawn
// goroutines, read wall clocks and consume entropy. Packages that are
// neither sim-side nor host-side (harness, prof, the CLI binaries)
// get the default treatment: sim-side determinism rules skip them,
// but the global concurrency rule still applies file by file.
func IsHostSide(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, modulePrefix)
	if !ok {
		return false
	}
	for {
		if hostSidePkgs[rest] {
			return true
		}
		i := strings.LastIndexByte(rest, '/')
		if i < 0 {
			return false
		}
		rest = rest[:i]
	}
}

// MaySpawn reports whether code in the package at importPath may create
// simulation processes. nogoroutine confines Spawn to these packages,
// and fncontext accepts a Spawn from fn-event context inside them (the
// interrupt-handler pattern) instead of flagging it.
func MaySpawn(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, modulePrefix)
	return ok && spawnPkgs[rest]
}
