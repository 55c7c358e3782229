package walltime_test

import (
	"testing"

	"shrimp/internal/analysis/analysistest"
	"shrimp/internal/analysis/walltime"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", walltime.Analyzer,
		"shrimp/internal/sim",
		"shrimp/internal/workload",
		"shrimp/internal/twin",
		"shrimp/internal/harness",
	)
}
