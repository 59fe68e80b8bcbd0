GO ?= go

# Where bench-json writes its output; bench-gate points this at a temp
# directory to get a fresh run without clobbering the committed files.
BENCH_DIR ?= .

.PHONY: check vet lint build test race alloc bench bench-build bench-json bench-gate chaos fuzz-smoke relayd-smoke

# BENCH_GATE=1 appends the benchmark regression gate (a full fresh
# bench-json run — minutes, not seconds), so plain `make check` stays
# fast. CI always runs the gate as its own job.
check: vet lint build race alloc bench bench-build $(if $(filter 1,$(BENCH_GATE)),bench-gate)

vet:
	$(GO) vet ./...

# Project-specific analyzers (pool lifecycle, determinism, atomic-field
# discipline, enum exhaustiveness, lock ordering, goroutine termination,
# atomic durable writes) plus the hotalloc escape gate against
# lint/hotalloc.manifest. Dependency-free: relaylint is built from this
# module with the same toolchain as the rest of the tree.
lint:
	$(GO) run ./cmd/relaylint -hotalloc ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation-regression tests must run WITHOUT the race detector: the
# race runtime's allocation instrumentation makes testing.AllocsPerRun
# report noise, so these files carry a `//go:build !race` tag and get
# their own non-race invocation (CI runs this in the chaos job).
alloc:
	$(GO) test -run 'ZeroAlloc|AllocBudget' ./internal/dnsserver/ ./internal/dnswire/ ./internal/core/ ./internal/masque/ ./internal/geo/

# Chaos suite under the race detector: scans through the fault plane
# converge to the fault-free dataset, killed scans resume bit-identically,
# and the breaker/backoff/retry/campaign resilience paths hold up.
chaos:
	$(GO) test -race \
		-run 'Chaos|Checkpoint|Backoff|Breaker|Fault|Injector|Profile|Resilien|Retr|Resume|Dominant|Rotation|Campaign|BlockingStudy|RunDirect|RunRetries|RunDisting|ConnectWithRetry|VirtualClock' \
		./internal/faults/ ./internal/core/ ./internal/colstore/ ./internal/dnsserver/ ./internal/scan/ ./internal/atlas/ ./internal/masque/ ./internal/relayd/

# Five seconds of each fuzz target: every reader of bytes from disk or
# a socket keeps its "never panics, typed rejection, accepted input
# re-encodes to itself" contract under fresh mutations, not only on
# the committed corpus `go test` replays. One target per invocation
# (go test -fuzz takes a single match); -parallel 2 keeps the worker
# processes few.
FUZZ_TARGETS = \
	internal/dnswire:FuzzDecode internal/dnswire:FuzzDecodeName \
	internal/colstore:FuzzDecodeBinary internal/core:FuzzReadJournal \
	internal/masque:FuzzReadFrame internal/masque:FuzzUnseal \
	internal/masque:FuzzParseReject internal/masque:FuzzParseReservationInfo \
	internal/masque:FuzzParseDatagramPreamble internal/egress:FuzzParseCSV \
	internal/faults:FuzzParse
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s -parallel 2 ./$${t%%:*}/ || exit 1; \
	done

# End-to-end service smoke: boot cmd/relayd on the virtual clock, wait
# for a full cycle, scrape /healthz and /metrics, SIGTERM, and require
# a clean drain. Mirrors the relayd-smoke CI job.
relayd-smoke:
	./scripts/relayd-smoke.sh

# One iteration keeps CI fast; run with a larger -benchtime locally for
# stable numbers.
bench:
	$(GO) test -run '^$$' -bench BenchmarkScanThroughput -benchtime 1x .

# bench/ is a module of its own that imports internal/..., so the root
# module's build and tests never compile it: vet it and run its tests
# (≈12 s) here, so an internal/ API change that breaks the product
# benchmark fails in CI rather than in the benchmark run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./e2e

# Machine-readable numbers for the sharded pipelines (attribution,
# campaigns, Table 3, CSV parse) and the zero-allocation exchange path.
# BENCH_exchange.json carries B/op and allocs/op (-benchmem): the wire
# codec, the authoritative handler, both transports, and the scan
# throughput bench that multiplies them.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkAttribute$$|BenchmarkAtlasCampaign$$|BenchmarkTable3$$|BenchmarkParseCSV$$' -benchtime 10x . | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_pipeline.json
	@cat $(BENCH_DIR)/BENCH_pipeline.json
	{ $(GO) test -run '^$$' -bench 'BenchmarkEncodeECSQuery$$|BenchmarkEncoderReuse$$|BenchmarkDecodeResponse$$|BenchmarkDecodeInto$$' -benchtime 2000x -benchmem ./internal/dnswire/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkAuthServerHandle$$|BenchmarkExchangeMemTransport$$|BenchmarkExchangeUDP$$' -benchtime 2000x -benchmem ./internal/dnsserver/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkScanThroughput$$' -benchtime 1x -benchmem . ; } | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_exchange.json
	@cat $(BENCH_DIR)/BENCH_exchange.json
	{ $(GO) test -run '^$$' -bench 'BenchmarkPersistCanonicalRead$$|BenchmarkPersistSidecarLoad$$|BenchmarkDiffMap$$|BenchmarkDiffStreaming$$' -benchtime 10x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkPersistSidecarEncode$$' -benchtime 500x . ; } | $(GO) run ./cmd/benchjson > $(BENCH_DIR)/BENCH_persist.json
	@cat $(BENCH_DIR)/BENCH_persist.json

# Benchmark regression gate: a fresh bench-json run into a temp
# directory, diffed against the committed baselines. cmd/benchdiff
# exits 1 on any regression beyond the threshold, which fails the
# chained recipe (and so the CI bench-gate job). Noisy benchmarks get
# per-benchmark thresholds instead of threatening CI: the
# single-iteration scan bench swings ±15% run to run, and the persist
# benches (10 iterations of multi-ms disk-and-parse work) gate at 50% —
# wide enough for a loaded runner, tight enough to catch the ~12×/~30×
# wins regressing.
bench-gate:
	@dir=$$(mktemp -d) && \
	$(MAKE) BENCH_DIR=$$dir bench-json && \
	$(GO) run ./cmd/benchdiff BENCH_pipeline.json $$dir/BENCH_pipeline.json && \
	$(GO) run ./cmd/benchdiff \
		-threshold-for 'BenchmarkScanThroughput.*=35' \
		BENCH_exchange.json $$dir/BENCH_exchange.json && \
	$(GO) run ./cmd/benchdiff -threshold 50 \
		BENCH_persist.json $$dir/BENCH_persist.json
