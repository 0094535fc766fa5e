# Single documented quality gate; CI and pre-commit both run `make check`.
# Every gate is deterministic: no step decides pass/fail from a measured
# speed, rate or ratio. Speed is the discbench harness's (BENCHMARK.json,
# `bash discbench/run.sh`).
GO ?= go

.PHONY: check build vet test race detlint bench-vet

check: build vet test race detlint bench-vet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs every package's tests, including the three-way engine lockstep,
# the snapshot and serve suites and the fuzz targets' seed corpora.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Determinism linter: forbid wall-clock reads, global math/rand and
# map-order iteration in the packages whose outputs must be
# bit-identical run to run.
detlint:
	$(GO) run ./cmd/detlint internal/core internal/sched internal/obs internal/parallel internal/stoch internal/rng internal/analysis internal/blockc internal/snap internal/serve

# discbench is its own module (replace disc => ../), so the root
# `go build ./...` never compiles it; vet it here so an API change that
# breaks the benchmark fails the gate instead of the benchmark run.
bench-vet:
	GOWORK=off GOFLAGS= $(GO) -C discbench vet ./...
