# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GOBIN := $(CURDIR)/bin

.PHONY: all lint test bench-smoke fuzz-smoke golden calibrate trace-smoke serve-smoke perf perf-test loc clean

all: lint test

# lint is the CI lint job: a gofmt check, stock vet, then one shrimpvet
# pass over the module, which also writes the SARIF report CI uploads.
# The gofmt check skips testdata trees (analyzer fixtures pin `// want`
# positions) and hidden directories (build caches).
lint:
	@unformatted=$$(find . \( -name testdata -o -name '.?*' \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go build -o $(GOBIN)/shrimpvet ./cmd/shrimpvet
	$(GOBIN)/shrimpvet -sarif $(GOBIN)/shrimpvet.sarif ./...

test:
	go test -race ./...

# bench-smoke runs one iteration of every micro-benchmark: catches
# benchmarks that panic or rot, with no timing thresholds.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke runs every Fuzz* target in the module for 10s each:
# a short coverage-guided pass that catches decoder panics and
# round-trip breaks. Failing inputs land in the package's
# testdata/fuzz/ directory, where `go test` replays them afterwards.
fuzz-smoke:
	@for pkg in $$(go list ./...); do \
		for f in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			go test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

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

# trace-smoke traces one quick experiment at -parallel 1 and 4 and
# checks the Chrome trace is valid JSON, both widths wrote the same
# trace bytes, and -metrics prints the trace metrics.
trace-smoke:
	BIN=$(GOBIN) bash scripts/trace_smoke.sh

# serve-smoke boots shrimpd and checks the HTTP API end to end: health,
# NDJSON results byte-identical to shrimpbench -json, no simulated page
# left resident after a job, cache hits on a repeated job, and a clean
# SIGTERM drain.
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

# loc prints the count of non-test Go lines under internal/ and cmd/,
# leaving out _test.go files and testdata/ trees: the code-size figure
# the ledger quotes. It is a report, not a gate.
loc:
	@find internal cmd -name testdata -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

clean:
	rm -rf $(GOBIN)
