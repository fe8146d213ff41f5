GO ?= go

# bash for pipefail: a failing go test must fail the bench targets even when
# benchjson, last in the pipe, succeeds.
SHELL := /bin/bash

# Packages with concurrent live-cluster paths; kept race-clean.
RACE_PKGS = ./internal/httpd/... ./internal/httpmsg/... ./internal/loadd/... ./internal/live/... ./internal/retry/... ./internal/metrics/... ./internal/monitor/... ./internal/cache/... ./internal/flight/... ./internal/slo/... ./internal/heat/... ./internal/rebalance/... ./internal/nodeobs/...

.PHONY: build test vet race fmt-check bench-check check bench bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)

# gofmt prints nothing when everything is formatted; any output fails.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench/ is its own module, so ./... above never compiles it: vet and test
# it here, or a cache/httpmsg API change that breaks bench/replay.go shows
# up only when the benchmark runs.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# The CI gate: tier-1 build+test plus vet, formatting, the race pass over
# the concurrent packages, and the benchmark module's own vet and tests.
check: build vet fmt-check test race bench-check

# The paper's evaluation on the simulated substrate, one seeded DES run per
# benchmark (-benchtime=1x). Its metrics are exact, so bench and
# bench-compare share this one command line. Host performance is measured
# by the bench/ module, not here.
BENCH_RUN = $(GO) test -run '^$$' -bench=. -benchtime=1x .

# Regenerate BENCH_sim.json. The run lands in a temp file that replaces the
# baseline only when both go test and benchjson succeed, so a failed build
# leaves the baseline untouched.
bench:
	set -o pipefail; $(BENCH_RUN) | $(GO) run ./cmd/benchjson > BENCH_sim.json.tmp \
		|| { rm -f BENCH_sim.json.tmp; exit 1; }
	mv BENCH_sim.json.tmp BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Diff a fresh run against the committed baseline; fails on any benchmark or
# metric that differs from it, or is missing on either side.
bench-compare:
	set -o pipefail; $(BENCH_RUN) | $(GO) run ./cmd/benchjson -compare BENCH_sim.json
