# Developer / CI entry points. `make ci` is the gate: vet, the full test
# suite under the race detector (crash-matrix recovery tests included), the
# kernel-calling packages again on the portable kernels, a single pass
# over every Go benchmark so every experiment of bench.Experiments and the
# assertions the micro-benchmarks make before their clocks start at least
# compile and run, the goldens and worker-invariance tests at GOMAXPROCS 1 and 4, the
# online-reconfiguration gate (migration determinism
# and the migration crash matrix, run explicitly so they cannot be
# filtered out), the alloc-gate tests in strict mode (so the
# zero-allocation query-path guarantee — with persistence enabled —
# cannot be silently skipped), and a 30s-per-target fuzz smoke pass over
# the snapshot/WAL decoders and both wire codecs. Performance is measured by ./benchmark alone
# (see benchmark/README.md); nothing here records a baseline.

GO ?= go

.PHONY: all build test race purego cpu-matrix vet bench alloc-gate reconfig-gate fuzz-smoke loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, and gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# The race-tested suite: every package, including the concurrent
# SearchBatch / live-collection / server-client tests.
race:
	$(GO) test -race ./...

# The portable kernels (kernels.go) are the only scalar float32 distance
# arithmetic and the reference the SSE and AVX2 ones are tested against,
# but an amd64 build dispatches past them: run the packages that call the
# kernels — goldens (search fixture, Evaluate) and the engine's
# bit-identity tests included — with them forced.
purego:
	$(GO) test -tags purego ./internal/linalg ./internal/index ./internal/kmeans ./internal/vdms

# vdms.Open and Evaluate size their pools from GOMAXPROCS, and the suite
# otherwise runs only at the machine's own value: run every golden and
# worker-invariance test — the landed-snapshot byte golden and the
# sealed-row read-back check included — on one CPU and on four, so a
# result that depends on the pool size fails here and not on somebody
# else's machine.
cpu-matrix:
	$(GO) test -cpu 1,4 -count=1 -run 'Golden|WorkerCountInvariant|IdenticalAcrossWorkers|DeterministicAcrossWorkers|ReadBackBitExact' ./internal/index ./internal/kmeans ./internal/vdms ./internal/core

# One iteration of every benchmark (BenchmarkExperiments: each entry of
# bench.Experiments once; the churn benchmark BenchmarkSearchAfterDeletes;
# the package micro-benchmarks) — a compile-and-smoke pass, not a
# measurement.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The allocation regression fence, run without -race and in strict mode:
# a skipped or missing gate fails the build instead of passing silently.
# Covers the zero-allocation index query path, the persistence gate
# (durable collections must search with exactly the allocations of
# memory-only ones), the deletion gate (tombstones must cost no
# allocations either) and the JSON append encoders (a hot message written
# into a reused buffer allocates nothing). Every gate is named (whole-line
# match, so one gate's name cannot stand in for another's): the run cannot
# pass by absence.
alloc-gate:
	@for g in TestAllocGateSearch TestAllocGateSearchBatch TestAllocGateSearchMultiInto; do \
		$(GO) test -list 'TestAllocGate' ./internal/index | grep -qx $$g \
			|| { echo "alloc-gate test $$g missing from ./internal/index"; exit 1; }; done
	@for g in TestAllocGatePersistentSearch TestAllocGateShardedSearch TestAllocGateTombstonedSearch; do \
		$(GO) test -list 'TestAllocGate' ./internal/vdms | grep -qx $$g \
			|| { echo "alloc-gate test $$g missing from ./internal/vdms"; exit 1; }; done
	@for g in TestAllocGateJSONEncode; do \
		$(GO) test -list 'TestAllocGate' ./internal/server | grep -qx $$g \
			|| { echo "alloc-gate test $$g missing from ./internal/server"; exit 1; }; done
	ALLOC_GATE_STRICT=1 $(GO) test -run 'TestAllocGate' -count=1 ./internal/index ./internal/vdms ./internal/server

# The online-reconfiguration gate, run explicitly (not just as part of
# the suite) so neither half can be filtered out: migration determinism —
# post-migration state bit-identical to a fresh build at the target
# configuration, hot swaps and reshards under churn — and the migration
# crash matrix — a kill injected at every protocol step recovers to
# exactly the old or the new generation, never a mix.
reconfig-gate:
	$(GO) test -run 'TestReconfigure|TestHotSwap|TestMigrate' -count=1 ./internal/vdms
	$(GO) test -run 'TestMigrationCrashMatrix' -count=1 ./internal/persist/crashtest

# Native fuzzing smoke pass over everything that decodes bytes it did not
# write: 30 seconds per target proving hostile snapshot/WAL bytes never
# panic or OOM — recovery either succeeds or returns a typed
# persist.CorruptError — and that hostile binary wire bodies (same payload
# reader) fail per message, decode to no more than their length justifies,
# and re-encode to themselves when accepted; and that the JSON codec's
# fast paths decode and encode exactly as encoding/json does.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 30s ./internal/persist
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 30s ./internal/persist
	$(GO) test -run '^$$' -fuzz 'FuzzBinaryRequest' -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzBinaryResponse' -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzJSONRequest' -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzJSONResponse' -fuzztime 30s ./internal/server

# Non-test Go lines outside benchmark/, per package directory and in
# total, then the hand-written assembly lines (*.s) on a line of their
# own: the size figures ROADMAP tracks.
LOC_FILES = -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'
loc:
	@for d in $$(find . -type d ! -path './.*' ! -path './benchmark*' | sort); do \
		n=$$(find $$d -maxdepth 1 $(LOC_FILES) -exec cat {} + | wc -l); \
		[ $$n -eq 0 ] || printf '%7d %s\n' $$n $$d; done
	@printf '%7d total\n' $$(find . $(LOC_FILES) -exec cat {} + | wc -l)
	@printf '%7d assembly\n' $$(find . -name '*.s' ! -path './.*' ! -path './benchmark/*' -exec cat {} + | wc -l)

ci: vet race purego cpu-matrix bench reconfig-gate alloc-gate fuzz-smoke
