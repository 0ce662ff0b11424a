# Development targets. `make check` is the gate every PR must pass: it
# checks formatting, vets the tree and runs the full test suite under the
# race detector, so the concurrent InferDTD worker pool is race-checked on
# every change.

GO ?= go

.PHONY: build test vet fmt-check race check bench bench-smoke fuzz-smoke profile incremental-smoke snapshot-smoke serve-smoke pipeline-smoke perfbench-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs every test at GOMAXPROCS 1 and 4 (-cpu 1,4): single-CPU
# containers still exercise the concurrent shard/commit paths under the
# race detector at a parallelism the hardware alone would never pick.
RACE_CPU ?= 1,4

race:
	$(GO) test -race -timeout 10m -cpu $(RACE_CPU) ./...

# incremental-smoke is the cache-equivalence gate: for every engine, warm
# re-inference over a memoized extraction must stay byte-identical to a
# cold from-scratch run. It also runs under `race` as part of the full
# suite; the named target keeps the check visible (and fast to run alone)
# when touching the fingerprint or cache code.
incremental-smoke:
	$(GO) test -run 'TestIncrementalColdWarmIdentical' .

# snapshot-smoke is the durable-summary gate: save -> load -> infer must
# stay byte-identical to direct inference, and shard summaries merged in
# order must reproduce single-corpus ingestion exactly.
snapshot-smoke:
	$(GO) test -run 'TestSnapshotSaveLoadInferEquivalence|TestSnapshotShardMergeEquivalence' .

# serve-smoke is the schema-service gate: it builds dtdserved and drives
# the real binary through ingest -> read -> SIGTERM drain and kill -9
# crash recovery, plus the in-process drain/recovery tests, all under the
# race detector. The server package also runs under `race` with the full
# suite; the named target is the fast loop when touching the daemon.
serve-smoke:
	$(GO) test -race -run 'TestDaemon' -count=1 .
	$(GO) test -race -count=1 ./internal/server

# pipeline-smoke is the ingestion gate: every worker count == reference.
# Every batch stages into the same units and folds them with the one
# commit (commitShard), inline at one worker and through the pipelined
# committer otherwise, so the gate holds the one-worker batch, tiny flush
# units and the four-worker pipeline to the independent encoding/xml
# reference loop, and keeps byte-identity across worker counts 1..8 and
# both read shapes (whole reads, and one byte per Read so every token
# straddles a read boundary), plus flush-unit splitting, FailFast prefix
# semantics, commit-fault atomicity and mid-commit cancellation — all
# under the race detector so the worker/committer handoff is checked at
# real parallelism.
pipeline-smoke:
	$(GO) test -race -cpu $(RACE_CPU) -count=1 \
		-run 'TestPipeline|TestEveryWorkerCountMatchesReference|TestParallelExtractionIdenticalToSequential|TestParallelInternIDsIdenticalAcrossWorkerCounts|TestParallelIngestion' \
		./internal/dtd .

# perfbench-check builds, vets and tests the benchmark harness. perfbench
# is its own module, outside ./..., so without this gate nothing notices
# when a change breaks the library API the benchmark drives.
perfbench-check:
	cd perfbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

check: fmt-check vet incremental-smoke snapshot-smoke serve-smoke pipeline-smoke perfbench-check race

# bench records the perf-trajectory workloads (Section 8.3 timings, the
# end-to-end pipeline at several ingestion worker counts, the isolated
# sharded-ingestion benchmark, validation over the ingestion corpus, the
# dedup-vs-verbatim sample pipeline comparison, the cold-vs-warm
# incremental inference contrast, and the corpus-summary
# save/load-vs-reingest contrast) as
# BENCH_PR10.json via cmd/benchjson. Parallel-ingestion entries carry a
# stage_ns breakdown (decode/flush-wait/commit/committer-idle) from the
# pipelined committer's PipelineStats.
#
# The ingestion benchmarks run over a generated corpus of BENCH_MB
# megabytes (default 100) so worker counts are measured against a
# workload that can amortize fan-out. The target refuses to record at
# GOMAXPROCS < 2: BENCH_PR5 silently recorded every parallel entry at
# gomaxprocs 1, which is how a parallel-ingestion regression stayed
# invisible. On a single-CPU machine, set GOMAXPROCS explicitly (e.g.
# GOMAXPROCS=4) to record an oversubscribed run — the per-entry
# gomaxprocs/cpus metrics keep it honest.
BENCH_PATTERN = BenchmarkPerf|BenchmarkEndToEndDTD|BenchmarkIngestParallel|BenchmarkIngestOneDoc|BenchmarkValidate|BenchmarkIngestDedup|BenchmarkIncrementalInfer|BenchmarkSnapshot
BENCH_COUNT ?= 3x
BENCH_MB ?= 100
BENCH_OUT ?= BENCH_PR10.json

bench:
	@gmp="$${GOMAXPROCS:-$$(nproc)}"; \
	if [ "$$gmp" -lt 2 ]; then \
		echo "make bench: refusing to record at GOMAXPROCS=$$gmp (< 2)."; \
		echo "Parallel benchmarks on one scheduler thread measure nothing;"; \
		echo "set GOMAXPROCS>=2 explicitly to record anyway (the per-entry"; \
		echo "gomaxprocs/cpus metrics will show the real shape)."; \
		exit 1; \
	fi
	DTDINFER_BENCH_MB=$(BENCH_MB) $(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_COUNT) -timeout 60m . \
		| $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-smoke is the CI gate: every benchmark must run once without
# failing.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# profile records CPU and allocation pprof profiles over the ingestion
# benchmark; inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
PROFILE_BENCH ?= BenchmarkIngestParallel/workers1
profile:
	$(GO) test -run xxx -bench '$(PROFILE_BENCH)' -benchtime 10x \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# fuzz-smoke runs each fuzz target briefly; go permits one -fuzz target
# per invocation, hence one command per target. FuzzStreamEquivalence,
# FuzzTokenizerEquivalence and FuzzValidatorEquivalence are the
# differential gates holding the tokenizer, ingestion and validation to
# encoding/xml and the reference loops built on it. -fuzzminimizetime
# bounds how long the fuzzer may spend minimizing a newly interesting
# input (go's default is 60s): inputs grown from the multi-KB document
# seeds otherwise stall a short smoke at 0 execs/s while they are
# minimized.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzExtraction -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzTokenizerEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzValidatorEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sample
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/regex

# loc prints the non-test Go line delta of the working tree against BASE:
# lines added and removed in *.go files other than *_test.go, and the
# net. Untracked files count only once staged (git add, or git add -N).
# Informational only; it is not part of check.
BASE ?= HEAD

loc:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' | \
		awk '{ add += $$1; del += $$2 } END { printf "non-test Go lines since %s: +%d -%d, net %d\n", base, add, del, add - del }' base='$(BASE)'
