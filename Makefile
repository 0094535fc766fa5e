# Single documented quality gate; CI and pre-commit both run `make check`.
# Every gate is deterministic: no step decides pass/fail from a measured
# speed, rate or ratio. Speed is the discbench harness's (BENCHMARK.json,
# `bash discbench/run.sh`).
GO ?= go

.PHONY: check fmt build vet test race detlint mutants bench-vet

check: fmt build vet test race detlint mutants bench-vet

# Every Go file in the tree, discbench/ included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs every package's tests, including the three-way engine lockstep,
# the snapshot and serve suites and the fuzz targets' seed corpora.
test:
	$(GO) test ./...

# cmd/experiments' golden test is built !race: it runs a non-race build
# of the experiments binary, so under -race it would repeat `make test`.
race:
	$(GO) test -race ./...

# Determinism linter: forbid wall-clock reads, global math/rand and
# map-order iteration in the packages whose outputs must be
# bit-identical run to run.
detlint:
	$(GO) run ./cmd/detlint internal/core internal/bus internal/interrupt internal/mem internal/isa internal/stackwin internal/sched internal/obs internal/parallel internal/stoch internal/rng internal/analysis internal/blockc internal/board internal/snap internal/serve internal/fault internal/xval internal/workload internal/baseline internal/tables internal/trace internal/minic internal/asm internal/asmlib internal/report internal/rt internal/study internal/prof cmd/experiments

# Mutation gate: every seeded fault in cmd/mutants' table, applied with
# `go test -overlay`, must fail the tests the table names for it.
mutants:
	$(GO) run ./cmd/mutants

# discbench is its own module (replace disc => ../), so the root
# `go build ./...` never compiles it; vet it here so an API change that
# breaks the benchmark fails the gate instead of the benchmark run.
bench-vet:
	GOWORK=off GOFLAGS= $(GO) -C discbench vet ./...
