# Developer / CI entry points. `make ci` is the tier-1 gate plus the
# race-enabled test suite; `make lint` is the source gate (vet, gofmt, the
# pflint hot-path lock-discipline linter, and the pflint -alloc escape-
# analysis gate that keeps the Filter closure free of unaudited heap
# escapes); `make check` is the ruleset gate (the pfcheck static analyzer
# over every shipped rule base); `make verify` is the invariant gate (the
# pfverify symbolic verifier proving every shipped .inv file and the
# worldgen tenant invariant); `make analyze` bundles lint+check+verify as
# the single CI static-analysis job. `make bench` runs the whole benchmark
# suite (cmd/pfbench: every cell of the internal/lmbench harness — Tables
# 6 and 7, Figures 4 and 5, hot-path scaling, IPC, observability and
# tracing overhead, rule-base scaling, allocation profile, policy control
# plane, world scaling, verifier scaling) into BENCH.json, the one
# committed result file; `make bench-smoke` runs every cell at its smoke
# size into BENCH_smoke.json. Both fail if any gate fails. `make
# fuzz-smoke` fuzzes the span JSON decoder (the LOG, denial-log, trace-file
# and span-stream format) for ten seconds from its committed seed corpus.

GO ?= go

.PHONY: all vet gofmt-check pflint pflint-alloc lint build test test-race ci check verify analyze bench bench-smoke fuzz-smoke

all: lint ci check verify

vet:
	$(GO) vet ./...

gofmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

pflint:
	$(GO) run ./cmd/pflint

pflint-alloc:
	$(GO) run ./cmd/pflint -alloc

lint: vet gofmt-check pflint pflint-alloc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

ci: vet build test-race

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSpanJSON$$' -fuzztime 10s ./internal/obs

# Ruleset gate: the pfcheck static analyzer must pass (no error-severity
# findings) on every shipped example ruleset, the paper's Table 5 base, and
# the synthetic scale bases the benchmarks use.
check:
	for f in examples/rules/*.pft; do $(GO) run ./cmd/pfctl -check -f $$f || exit 1; done
	$(GO) run ./cmd/pfctl -check -standard
	$(GO) run ./cmd/pfctl -check -scale 100
	$(GO) run ./cmd/pfctl -check -scale 1200
	$(GO) run ./cmd/pfctl -check -scale 10000

# Verification gate: the pfverify symbolic verifier must prove every
# shipped invariant file against its ruleset (the paper's Table 5 base and
# the webserver example) and the built-in tenant non-interference
# invariant against a generated deployment's rule base.
verify:
	$(GO) run ./cmd/pfctl -verify -standard -inv examples/rules/standard.inv
	$(GO) run ./cmd/pfctl -verify -f examples/rules/webserver.pft -inv examples/rules/webserver.inv
	$(GO) run ./cmd/pfctl -verify -world tiny

# The whole static-analysis surface as one target (the ci.yml analyze
# job): vet + gofmt + both pflint modes, the pfcheck analyzer over every
# shipped rule base, and the pfverify invariant proofs.
analyze: lint check verify

# pfbench is built, not run with `go run`, so the binary carries the VCS
# revision (and whether the tree was modified) that stamps the result file.
bench:
	$(GO) build -o .bench_build/pfbench ./cmd/pfbench
	.bench_build/pfbench -json BENCH.json

bench-smoke:
	$(GO) build -o .bench_build/pfbench ./cmd/pfbench
	.bench_build/pfbench -smoke -json BENCH_smoke.json
