GO ?= go

.PHONY: check vet lint build test race alloc bench bench-build bench-pair chaos fuzz-smoke relayd-smoke

# The same-box benchmark gate (bench-pair) takes minutes, so it is not
# part of check; CI runs it as its own job.
check: vet lint build race alloc bench bench-build

vet:
	$(GO) vet ./...

# Project-specific analyzers (pool lifecycle, determinism, atomic-field
# discipline, enum exhaustiveness, lock ordering, goroutine termination,
# atomic durable writes) plus the hotalloc escape gate against
# lint/hotalloc.manifest. Dependency-free: relaylint is built from this
# module with the same toolchain as the rest of the tree.
#
# Then the //lint:allow budget: the count of suppression directives in
# .go files outside the analyzers' own sources (internal/lint,
# cmd/relaylint). It may only fall: lint fails when the count exceeds
# LINT_ALLOW_BUDGET, and a change that removes a directive lowers it.
LINT_ALLOW_BUDGET = 7
lint:
	$(GO) run ./cmd/relaylint -hotalloc ./...
	@n=$$(find . -name '*.go' -not -path './internal/lint/*' -not -path './cmd/relaylint/*' -exec grep -o '//lint:allow' {} + | wc -l); \
	echo "//lint:allow directives: $$n (budget $(LINT_ALLOW_BUDGET))"; \
	if [ "$$n" -gt $(LINT_ALLOW_BUDGET) ]; then \
		echo "lint: $$n //lint:allow directives exceed the budget of $(LINT_ALLOW_BUDGET)" >&2; exit 1; \
	fi

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
	$(GO) test -run 'ZeroAlloc|AllocBudget' ./internal/dnsserver/ ./internal/dnswire/ ./internal/core/ ./internal/masque/ ./internal/geo/ ./internal/egress/

# Chaos suite under the race detector: scans through the fault plane
# converge to the fault-free dataset, killed scans resume bit-identically,
# and the breaker/backoff/retry/campaign resilience paths hold up.
chaos:
	$(GO) test -race \
		-run 'Chaos|Checkpoint|Backoff|Breaker|Fault|Injector|Profile|Resilien|Retr|Resume|Dominant|Rotation|Campaign|BlockingStudy|RunDirect|RunRetries|RunDisting|ConnectWithRetry|VirtualClock' \
		./internal/faults/ ./internal/retry/ ./internal/core/ ./internal/colstore/ ./internal/dnsserver/ ./internal/scan/ ./internal/atlas/ ./internal/masque/ ./internal/relayd/

# Five seconds of each fuzz target: every reader of bytes from disk or
# a socket keeps its "never panics, typed rejection, accepted input
# re-encodes to itself" contract under fresh mutations, not only on
# the committed corpus `go test` replays. One target per invocation
# (go test -fuzz takes a single match); -parallel 2 keeps the worker
# processes few.
FUZZ_TARGETS = \
	internal/dnswire:FuzzDecode internal/dnswire:FuzzDecodeName \
	internal/colstore:FuzzDecodeBinary internal/core:FuzzReadJournal \
	internal/core:FuzzReadCanonical \
	internal/masque:FuzzReadFrame internal/masque:FuzzUnseal \
	internal/masque:FuzzParseReject internal/masque:FuzzParseReservationInfo \
	internal/masque:FuzzParseDatagramPreamble internal/egress:FuzzParseCSV \
	internal/faults:FuzzParse internal/relayd:FuzzReadDiff \
	internal/quicsim:FuzzParseLongHeader
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

# Same-box regression gate: the product benchmark (bench/run.sh) on
# BASE and on the working tree, in alternating pairs, each pair judged
# by bench/e2e -compare against the bounds in BENCHMARK.json. Fails on
# records that cannot be compared, or on a (workload, metric) row that
# breaches its bound in most pairs. Needs BASE, e.g. BASE=origin/main.
bench-pair:
	./scripts/bench-pair.sh $(BASE)
