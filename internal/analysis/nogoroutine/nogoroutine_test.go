package nogoroutine_test

import (
	"testing"

	"shrimp/internal/analysis/analysistest"
	"shrimp/internal/analysis/nogoroutine"
)

func TestNogoroutine(t *testing.T) {
	analysistest.Run(t, "testdata", nogoroutine.Analyzer,
		"shrimp/internal/svm",
		"shrimp/internal/sim",
		"shrimp/internal/server",
		"shrimp/internal/nic",
		"shrimp/internal/machine",
		"shrimp/internal/workload",
		"shrimp/internal/harness",
	)
}
