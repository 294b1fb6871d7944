GO ?= go

# Substrate micro-benchmarks: the adjacency-engine hot paths tracked across
# PRs (compare runs with benchstat; see README "Benchmarks"), plus the
# reconstruction of the multi-component graph (BenchmarkShardedReconstruct,
# named for the sharded engine it once also timed).
BENCH_SUBSTRATE ?= BenchmarkHasEdge|BenchmarkMaximalCliques|BenchmarkScoreCliques|BenchmarkFeatures|BenchmarkDegeneracyOrdering|BenchmarkCommonNeighborCount|BenchmarkSumMinCommonWeight|BenchmarkMLPForward|BenchmarkMLPTrain|BenchmarkParallelScoring|BenchmarkShardedReconstruct|BenchmarkIncrementalApply|BenchmarkCorpusReconstruct|BenchmarkParallelRound|BenchmarkSubcliqueScoring

# Flags for the bench-regression gate (CI overrides warn-only on pushes).
BENCHDIFF_FLAGS ?= -warn-only

.PHONY: all build fmt fmt-fix vet lint lint-triage test race smoke parallel-check incr-check crash-check load-check bench bench-substrate bench-substrate-list bench-json bench-json-force bench-regress layout check

all: check build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l . | grep -v '^vendor/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -l . | grep -v '^vendor/' | xargs -r gofmt -w

vet:
	$(GO) vet ./...

# Static analysis + known-vulnerability scan (mirrored by the CI lint
# job). mariohlint (cmd/mariohlint) enforces the repo's determinism and
# concurrency invariants and is a hard gate; the external tools are
# skipped with a pointer when not installed, so `make lint` stays useful
# on minimal dev machines.
lint: vet
	$(GO) run ./cmd/mariohlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Triage view of mariohlint: print every finding as file:line: message
# and exit 0 regardless, for working through a dirty tree finding by
# finding (fix it, or justify it with //lint:<analyzer> <reason>).
lint-triage:
	@$(GO) run ./cmd/mariohlint ./... 2>&1 | grep -v '^#' ; \
	true

test:
	$(GO) test ./...

# Race detector over the concurrent paths (CI's race step runs this
# target, so the -run list lives only here).
race:
	$(GO) test -race -run 'Batch|Cancel|Progress|Parallel|Pipeline|Server|Queue|Registry|Session|Engine|Durability|WAL|Snapshot' ./...

# End-to-end mariohd smoke test: boot the daemon, round-trip a
# reconstruction against a golden CLI run, exercise graceful shutdown.
smoke:
	./scripts/smoke.sh

# Parallelism equivalence matrix: reconstruct bundled datasets and corpus
# families at -parallel 2, 8 and the default and require byte-identical
# output versus the -parallel 1 golden run (mirrored by the CI
# parallel-equivalence job).
parallel-check:
	./scripts/parallel-check.sh

# Incremental/serial equivalence matrix: replay generated delta streams
# through a session (batch by batch, verified against from-scratch
# rebuilds) and require byte-identical output versus the goldens of the
# mutated graph at the default parallelism and -parallel 1/2/8, plus the
# >= 5x speedup floor
# (mirrored by the CI incremental-equivalence job; smoke.sh repeats the
# session flow against a live mariohd).
incr-check:
	./scripts/incr-check.sh

# Crash-recovery gate: SIGKILL a durable session replay at randomized
# points, resume from the WAL + snapshots, and require the recovered
# output byte-identical to a from-scratch serial golden (mirrored by the
# CI crash-recovery job; smoke.sh repeats the kill -9 flow against a live
# mariohd).
crash-check:
	./scripts/crash-check.sh

# Multi-tenant serving smoke: cmd/loadgen drives an in-process mariohd
# with concurrent reconstructions + session churn across tenants under a
# memory budget, and fails on any 5xx, any byte divergence from the
# serial library reconstruction, zero dedup hits, or RSS over bound
# (mirrored by the CI serving-load job).
load-check:
	./scripts/load-check.sh

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Human-readable substrate benchmark run.
bench-substrate:
	$(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)' -benchmem .

# Print the substrate benchmark regex, so CI's bench-regression job runs
# the list kept here instead of a copy.
bench-substrate-list:
	@echo '$(BENCH_SUBSTRATE)'

# Record the substrate benchmarks into BENCH_<date>.json (test2json event
# stream; the benchmark result lines are in the "Output" fields) so the
# perf trajectory of the repo is kept under version control. Refuses to
# overwrite an existing recording; `make bench-json-force` re-records.
bench-json:
	@out=BENCH_$$(date +%Y-%m-%d).json; \
	if [ -e "$$out" ]; then \
		echo "$$out already exists; run 'make bench-json-force' to overwrite it"; exit 1; \
	fi; \
	$(MAKE) --no-print-directory bench-json-force

bench-json-force:
	@out=BENCH_$$(date +%Y-%m-%d).json; \
	prev=$$(ls BENCH_*.json 2>/dev/null | grep -vx "$$out" | grep -v -- '-loadgen.json' | sort | tail -1); \
	if ! $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)' -benchmem -json . > "$$out"; then \
		rm -f "$$out"; echo "bench-json: benchmark run failed, nothing recorded"; exit 1; \
	fi; \
	echo "recorded $$out"; \
	if [ -n "$$prev" ]; then \
		echo "compare against the previous recording with:"; \
		echo "  go run ./cmd/benchdiff -against $$prev -new $$out"; \
		echo "or with benchstat (go install golang.org/x/perf/cmd/benchstat@latest):"; \
		echo "  benchstat <(jq -r 'select(.Action==\"output\").Output' $$prev) <(jq -r 'select(.Action==\"output\").Output' $$out)"; \
	fi

# Compare a fresh substrate run against the latest committed BENCH_*.json
# (the CI bench-regression gate; warn-only by default, override with
# BENCHDIFF_FLAGS=""). The fresh run goes through a temp file so a
# crashing benchmark suite fails the gate instead of slipping past as
# "missing" benchmarks.
bench-regress:
	@tmp=$$(mktemp); \
	if ! $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)' -benchtime=0.2s . > "$$tmp"; then \
		cat "$$tmp"; rm -f "$$tmp"; \
		echo "bench-regress: benchmark run failed"; exit 1; \
	fi; \
	$(GO) run ./cmd/benchdiff -against latest -new "$$tmp" $(BENCHDIFF_FLAGS); \
	st=$$?; rm -f "$$tmp"; exit $$st

# Where the linker placed the MLP kernel in the end-to-end benchmark's
# binary. The four-neuron layerInto runs as fast at 32 as at 0 mod 64
# (the one-neuron loop it replaced did not; see README "Benchmarks"), but
# a size change anywhere can move it, so a comparison of two revisions
# states it. Builds perfbench exactly as perfbench/run.sh does (same
# flags, environment and output path) and prints the address and the
# offset mod 64.
layout:
	@out="$$(pwd)/.bench_build"; mkdir -p "$$out/gocache" "$$out/gotmp"; \
	cd perfbench && \
	GOCACHE="$$out/gocache" GOTMPDIR="$$out/gotmp" GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		$(GO) build -trimpath -o "$$out/perfbench" . || exit 1; \
	addr=$$($(GO) tool nm "$$out/perfbench" | awk '$$3 == "marioh/internal/mlp.(*Net).layerInto" { print $$1 }'); \
	if [ -z "$$addr" ]; then echo "layout: mlp.(*Net).layerInto not found in $$out/perfbench"; exit 1; fi; \
	echo "mlp.(*Net).layerInto at 0x$$addr, offset mod 64 = $$(( 0x$$addr % 64 ))"

check: fmt vet test
