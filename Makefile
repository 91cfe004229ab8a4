# Build/test entry points. Everything is pure Go, standard library only.

GO ?= go

.PHONY: all build test lint lint-report check trace-check drill-smoke mort-check frontend-smoke crashloop-soak surge-soak race bench bench-engine bench-report bench-gate clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs hivelint, the in-tree determinism, layering &
# fault-containment suite (internal/lint): six single-package
# analyzers plus the four interprocedural ones (carefulref, rpctaint,
# errdrop, deadcode) built on the module-wide call graph and taint
# engine: 10 in all. It loads every directory with Go source, the
# example programs included. Stale //hive:lint-ignore pragmas are
# diagnostics too. The
# -budget flag additionally fails the run if linting itself exceeds 30s
# of wall time: the suite must stay cheap enough to live inside the
# tier-1 gate. The same suite is also gated inside `go test ./...` via
# the internal/lint self-test.
lint:
	$(GO) run ./cmd/hivelint -budget 30s

# lint-report writes the machine-readable lint report; CI uploads it as
# a build artifact.
lint-report:
	$(GO) run ./cmd/hivelint -json -budget 30s > hivelint.json

# check is the tier-1 gate: build, gofmt (any file it lists fails), vet,
# hivelint, full test suite, the race detector over the packages that
# actually use OS-level concurrency (the parallel trial runner) plus the
# engine it drives, and the observability byte-identity gate.
check: build
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	$(GO) vet ./...
	$(GO) run ./cmd/hivelint -budget 30s
	$(GO) test ./...
	$(GO) test -race ./internal/parallel/... ./internal/sim/...
	$(MAKE) trace-check
	$(MAKE) mort-check
	$(MAKE) frontend-smoke

# frontend-smoke is the fast frontend gate inside `check`: one surge
# trial end to end (kill a cell mid-surge through the faultdrill CLI,
# exit nonzero unless contained with the loop closed) plus the targeted
# open-loop determinism tests with -count=1.
frontend-smoke:
	$(GO) run ./cmd/faultdrill -scenario 14 -trial 0
	$(GO) test -count=1 -run 'TestFrontendArrivalDeterminism|TestFrontendZipfTenantMix' ./internal/workload/

# trace-check is the observability gate: the Chrome trace export and the
# histogram-backed campaign rows must be byte-identical across -j1/-j4
# and across repeated same-seed runs, and the exporter's pairing rules
# must hold. Runs the targeted determinism + export tests with -count=1
# so a cached pass never masks a regression.
trace-check:
	$(GO) test -count=1 -run 'TestTraceAndMetricsDeterminism' ./internal/faultinject/
	$(GO) test -count=1 -run 'TestExportChromePairsSpans|TestSetMergeTotalOrder|TestSpanPropagationAcrossCells' ./internal/trace/

# drill-smoke is the fast end-to-end campaign gate: one trial of every
# scenario (paper rows and v2 extensions) through the faultdrill CLI,
# exiting nonzero on any containment failure.
drill-smoke:
	$(GO) run ./cmd/faultdrill -trials 1

# mort-check is the forensic cross-check gate: hivemort re-derives the
# containment verdict of every default-campaign trial purely from the
# structured trace (internal/forensic) and exits nonzero if any verdict
# disagrees with the fault-injection harness's live-state verdict.
mort-check:
	$(GO) run ./cmd/hivemort
	@echo "mort-check: trace-derived verdicts agree with the harness"

# crashloop-soak is the nightly deep gate for the availability loop:
# many extra trials of the crash-loop (scenario 12) and rolling-reboot
# (scenario 13) scenarios beyond the default campaign counts — every
# trial index draws a fresh seed — exiting nonzero on any containment
# failure or unbounded rejoin loop.
crashloop-soak:
	$(GO) build -o .soak-faultdrill ./cmd/faultdrill
	for t in $$(seq 0 24); do ./.soak-faultdrill -scenario 12 -trial $$t || exit 1; done
	for t in $$(seq 0 11); do ./.soak-faultdrill -scenario 13 -trial $$t || exit 1; done
	rm -f .soak-faultdrill
	@echo "crashloop-soak: 25 crash-loop + 12 rolling-reboot trials, all contained"

# surge-soak is the nightly deep gate for the frontend under fault: many
# extra surge trials (scenario 14) beyond the default campaign count —
# every trial index draws a fresh seed, a fresh fault time inside the
# burst, and a fresh victim — exiting nonzero if any trial leaks the
# fault, fails to close the reboot loop, or reports an unbounded
# user-visible window.
surge-soak:
	$(GO) build -o .soak-faultdrill ./cmd/faultdrill
	for t in $$(seq 0 15); do ./.soak-faultdrill -scenario 14 -trial $$t || exit 1; done
	rm -f .soak-faultdrill
	@echo "surge-soak: 16 surge-fault trials, all contained with bounded windows"

# race runs the concurrency-sensitive packages under the race detector,
# including the cross-package determinism gates in internal/faultinject.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/faultinject/...

# bench regenerates every paper table as benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# bench-engine tracks the simulator's own hot paths (events/sec, allocs).
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkEvent|BenchmarkPending|BenchmarkTask' -benchmem ./internal/sim/

# bench-report writes the machine-readable experiment report.
# BENCH_hive.json is committed as the tracked baseline; rerun this target
# to refresh it after perf-relevant changes.
bench-report:
	$(GO) run ./cmd/hivebench -quick -json -o BENCH_hive.json

# bench-gate is the CI perf-regression gate: regenerate the quick report
# and fail if any deterministic metric drifts more than 5% from the
# committed BENCH_hive.json. Wall-clock timings are ignored. After an
# intentional perf change, refresh the baseline with `make bench-report`
# and commit it.
bench-gate:
	$(GO) run ./cmd/hivebench -quick -json -o /tmp/bench-candidate.json
	$(GO) run ./cmd/benchgate -baseline BENCH_hive.json -candidate /tmp/bench-candidate.json

clean:
	@:
