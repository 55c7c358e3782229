# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GOBIN := $(CURDIR)/bin

.PHONY: all lint test bench-smoke golden calibrate serve-smoke perf perf-test clean

all: lint test

# lint is the single entry point both CI legs run: stock vet, then the
# shrimpvet suite standalone (writing the SARIF report CI uploads per
# PR) and again through cmd/go's vettool protocol, which exercises the
# fact-passing .vetx path and caches per package.
lint:
	go vet ./...
	go build -o $(GOBIN)/shrimpvet ./cmd/shrimpvet
	$(GOBIN)/shrimpvet -sarif $(GOBIN)/shrimpvet.sarif ./...
	go vet -vettool=$(GOBIN)/shrimpvet ./...

test:
	go test -race ./...

# bench-smoke runs one iteration of every micro-benchmark: catches
# benchmarks that panic or rot, with no timing thresholds.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# golden hashes the full `shrimpbench -exp all -quick` output (text and
# JSON, -parallel 1 and 4) against scripts/golden.sha256: any change to
# the simulation's observable behavior must come with a deliberate
# `scripts/golden_check.sh -update`. It is also the worker-count
# determinism check: both widths must give the same bytes.
golden:
	BIN=$(GOBIN) bash scripts/golden_check.sh

# calibrate runs every registry experiment through both the analytical
# twin and the simulator, writes the calibration report (text + JSON)
# under bin/ — CI uploads it as a workflow artifact — and fails if any
# experiment's MAPE or rank correlation regresses past the thresholds
# pinned in scripts/calibrate_check.sh.
calibrate:
	BIN=$(GOBIN) bash scripts/calibrate_check.sh

# serve-smoke boots shrimpd and checks the HTTP API end to end: health,
# NDJSON results byte-identical to shrimpbench -json, cache hits on a
# repeated job, and a clean SIGTERM drain.
serve-smoke:
	BIN=$(GOBIN) bash scripts/serve_smoke.sh

# perf runs the standing benchmark (perfbench/README.md), passing ARGS
# through to perfbench/run.sh, e.g.
#   make perf ARGS="--workload sweep-quick --seed 1 --seconds 25 --trace 0"
perf:
	bash perfbench/run.sh $(ARGS)

# perf-test vets and tests the benchmark module. It is its own Go module,
# so `go test ./...` at the root never compiles it: a harness API change
# that breaks the benchmark fails here instead.
perf-test:
	cd perfbench && go vet ./... && go test -race ./...

clean:
	rm -rf $(GOBIN)
