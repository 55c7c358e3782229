package fncontext_test

import (
	"testing"

	"shrimp/internal/analysis/analysistest"
	"shrimp/internal/analysis/fncontext"
)

// The sim fixture is listed first so its facts (directive marks,
// blocking summaries) are in the store when nic is analyzed, as
// registry.Check's dependency order has them on the real tree.
func TestFncontext(t *testing.T) {
	analysistest.Run(t, "testdata", fncontext.Analyzer,
		"shrimp/internal/sim", "shrimp/internal/nic")
}
