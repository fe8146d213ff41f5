GO ?= go

# Packages with concurrent live-cluster paths; kept race-clean.
RACE_PKGS = ./internal/httpd/... ./internal/httpmsg/... ./internal/loadd/... ./internal/live/... ./internal/retry/... ./internal/metrics/... ./internal/monitor/... ./internal/cache/... ./internal/flight/... ./internal/slo/... ./internal/heat/... ./internal/rebalance/...

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

# Regenerate the paper's evaluation on the simulated substrate and archive
# the headline metrics machine-readably. -benchtime=1x pins one DES run per
# benchmark, so the seeded headline metrics are reproducible and comparable.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem . | $(GO) run ./cmd/benchjson > BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Diff a fresh run against the committed baseline; fails on any headline
# metric regressing more than 20%.
bench-compare:
	$(GO) test -run '^$$' -bench=. -benchtime=1x . | $(GO) run ./cmd/benchjson -compare BENCH_sim.json
