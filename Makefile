# Developer / CI entry points. `make ci` is the gate: vet, the full test
# suite under the race detector (crash-matrix recovery tests included), the
# kernel-calling packages again on the portable kernels, a single pass
# over every benchmark so the macro experiments at least compile and run,
# the online-reconfiguration gate (migration determinism
# and the migration crash matrix, run explicitly so they cannot be
# filtered out), the alloc-gate tests in strict mode (so the
# zero-allocation query-path guarantee — with persistence enabled —
# cannot be silently skipped), a 30s-per-target fuzz smoke pass over the
# snapshot/WAL decoders, and a bench-json smoke pass.

GO ?= go

.PHONY: all build test race purego vet bench bench-churn bench-server bench-json bench-json-smoke bench-compare alloc-gate reconfig-gate fuzz-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race-tested suite: every package, including the concurrent
# SearchBatch / live-collection / server-client tests.
race:
	$(GO) test -race ./...

# The portable kernels (kernels.go) are the only scalar float32 distance
# arithmetic and the reference the SSE ones are tested against, but an
# amd64 build never compiles them in: run the packages that call the
# kernels — goldens (search fixture, Evaluate) and the engine's
# bit-identity tests included — with them forced.
purego:
	$(GO) test -tags purego ./internal/linalg ./internal/index ./internal/kmeans ./internal/vdms

# One iteration of every benchmark (root figure/table suite, the churn
# benchmark BenchmarkSearchAfterDeletes, and package micro-benchmarks) —
# a compile-and-smoke pass, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The churn benchmark alone: search latency after mass deletes + segment
# compaction (delete-heavy lifecycle).
bench-churn:
	$(GO) test -bench=SearchAfterDeletes -benchtime=1x .

# The end-to-end server benchmark alone: the same engine and query set
# served over real TCP as SearchBatch calls under each protocol mode
# (JSON serial, binary serial, binary pipelined), reporting QPS, p50/p99
# call latency, and recall — which must be identical across modes. The
# pipelined run fails unless it clearly beats serial JSON.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkServerWire' -benchtime=3x .

# The query-path benchmark trajectory: the root churn + sharded
# insert/search benchmarks, the per-index
# single-query benchmarks, the build-path ones (HNSW build, k-means run),
# and the end-to-end server wire benchmarks (QPS/latency/recall per
# protocol mode), with allocation stats, written to BENCH_query.json. The
# file is committed so future performance PRs diff against a baseline;
# only regenerate it deliberately, on the baseline machine.
BENCH_JSON_OUT ?= BENCH_query.json

bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	if ! $(GO) test -run '^$$' -bench 'SearchAfterDeletes' -benchmem -benchtime=1x . > "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'ShardedInsert' -benchmem -benchtime=100x . >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'ShardedSearchBatch' -benchmem -benchtime=30x . >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkHNSWSearch|BenchmarkIVFFlatSearch' -benchmem -benchtime=2000x ./internal/index >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkHNSWBuild|BenchmarkKMeansRun' -benchmem -benchtime=3x ./internal/index ./internal/kmeans >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkKernelMultiQuery|BenchmarkKernelQuantized' -benchmem -benchtime=10x ./internal/linalg >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkWALAppend' -benchmem -benchtime=2000x ./internal/persist >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchmem -benchtime=3x ./internal/vdms >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkReconfigureHot' -benchmem -benchtime=20x . >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkMigrateReshard' -benchmem -benchtime=3x . >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	if ! $(GO) test -run '^$$' -bench 'BenchmarkServerWire' -benchtime=3x . >> "$$tmp" 2>&1; \
		then cat "$$tmp"; exit 1; fi; \
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON_OUT) < "$$tmp"; \
	echo "wrote $(BENCH_JSON_OUT)"

# The ci smoke pass: same pipeline, but written to a throwaway path so a
# routine `make ci` cannot overwrite the committed baseline.
bench-json-smoke:
	@$(MAKE) --no-print-directory bench-json BENCH_JSON_OUT="$$(mktemp -u)"

# The performance regression fence: re-measure the query-path suite into a
# throwaway JSON and diff it against the committed baseline, failing on any
# >15% ns/op regression. Measurement noise makes this advisory on shared
# machines, so `make ci` only runs it when BENCH_GATE=1 is set (CI on the
# baseline machine); run it directly before committing perf-sensitive work.
BENCH_TOL ?= 15

bench-compare:
	@set -e; tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	$(MAKE) --no-print-directory bench-json BENCH_JSON_OUT="$$tmp"; \
	$(GO) run ./cmd/benchjson -baseline BENCH_query.json -candidate "$$tmp" -tol $(BENCH_TOL)

# The allocation regression fence, run without -race and in strict mode:
# a skipped or missing gate fails the build instead of passing silently.
# Covers the zero-allocation index query path and the persistence gate
# (durable collections must search with exactly the allocations of
# memory-only ones). Every gate is named (whole-line match, so one gate's
# name cannot stand in for another's): the run cannot pass by absence.
alloc-gate:
	@for g in TestAllocGateSearch TestAllocGateSearchBatch TestAllocGateSearchMultiInto; do \
		$(GO) test -list 'TestAllocGate' ./internal/index | grep -qx $$g \
			|| { echo "alloc-gate test $$g missing from ./internal/index"; exit 1; }; done
	@for g in TestAllocGatePersistentSearch TestAllocGateShardedSearch; do \
		$(GO) test -list 'TestAllocGate' ./internal/vdms | grep -qx $$g \
			|| { echo "alloc-gate test $$g missing from ./internal/vdms"; exit 1; }; done
	ALLOC_GATE_STRICT=1 $(GO) test -run 'TestAllocGate' -count=1 ./internal/index ./internal/vdms

# The online-reconfiguration gate, run explicitly (not just as part of
# the suite) so neither half can be filtered out: migration determinism —
# post-migration state bit-identical to a fresh build at the target
# configuration, hot swaps and reshards under churn — and the migration
# crash matrix — a kill injected at every protocol step recovers to
# exactly the old or the new generation, never a mix.
reconfig-gate:
	$(GO) test -run 'TestReconfigure|TestHotSwap|TestMigrate' -count=1 ./internal/vdms
	$(GO) test -run 'TestMigrationCrashMatrix' -count=1 ./internal/persist/crashtest

# Native fuzzing smoke pass over the persistence decoders: 30 seconds per
# target proving hostile snapshot/WAL bytes never panic or OOM — recovery
# either succeeds or returns a typed persist.CorruptError.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 30s ./internal/persist
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 30s ./internal/persist

# BENCH_GATE=1 additionally runs the bench-compare regression fence (the
# smoke pass already proves the pipeline itself works).
ci: vet race purego bench reconfig-gate alloc-gate fuzz-smoke bench-json-smoke
ifeq ($(BENCH_GATE),1)
ci: bench-compare
endif
