package fncontext_test

import (
	"testing"

	"shrimp/internal/analysis/analysistest"
	"shrimp/internal/analysis/fncontext"
)

// The fixtures are listed in dependency order so each package's facts
// (directive marks, blocking summaries) are in the store when its
// importers are analyzed, as registry.Check's order has them on the
// real tree. ring imports neither machine nor nic, whose methods its
// steps call.
func TestFncontext(t *testing.T) {
	analysistest.Run(t, "testdata", fncontext.Analyzer,
		"shrimp/internal/sim", "shrimp/internal/nic", "shrimp/internal/machine",
		"shrimp/internal/vmmc", "shrimp/internal/ring")
}
