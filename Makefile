# Build/test entry points. Everything is pure Go, standard library only.

GO ?= go

.PHONY: all build test lint lint-report check trace-check drill-smoke mort-check frontend-smoke crashloop-soak surge-soak race bench-engine bench-report bench-gate clean

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
# hivelint, full test suite, one pass of the state-scan benchmarks (the
# trace merge, the invariant scan and the forensic fold), of the sim
# engine benchmarks and of the null-RPC round trip (so they keep
# compiling and running), the race detector over the same
# packages as CI's race job (`make race`: the parallel trial runner, the
# engine it drives and the fault-injection determinism gates), the
# observability byte-identity gate, the forensic cross-check and the
# frontend smoke test.
check: build
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	$(GO) vet ./...
	$(GO) run ./cmd/hivelint -budget 30s
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'Merged|CheckInvariants|Analyze' -benchtime 1x ./internal/trace ./internal/core ./internal/forensic
	$(GO) test -run '^$$' -bench 'Engine|Event|Task|NullRPC' -benchtime 1x ./internal/sim ./internal/rpc
	$(MAKE) race
	$(MAKE) trace-check
	$(MAKE) mort-check
	$(MAKE) frontend-smoke

# frontend-smoke is the fast frontend gate inside `check`: one surge
# trial end to end (kill a cell mid-surge through the faultdrill CLI,
# exit nonzero unless contained with the loop closed and the trace audit
# agreeing) plus the targeted open-loop determinism tests with -count=1.
frontend-smoke:
	$(GO) run ./cmd/faultdrill -scenario 14 -trial 0
	$(GO) test -count=1 -run 'TestFrontendArrivalDeterminism|TestFrontendZipfTenantMix' ./internal/workload/

# trace-check is the observability gate: the Chrome trace export and the
# histogram-backed campaign rows must be byte-identical across -j1/-j4
# and across repeated same-seed runs; the Chrome export and the forensic
# report of four golden trials must match their pinned digests, so a
# change to the kind table or the span pairer shows across commits; and
# trace.Pair, the kind table, the exporter, the ordered merge, the
# chunked rings and the sink must keep their rules.
# Runs the targeted tests with -count=1 so a cached pass never masks a
# regression.
trace-check:
	$(GO) test -count=1 -run 'TestTraceAndMetricsDeterminism|TestGoldenRenderings' ./internal/faultinject/
	$(GO) test -count=1 -run 'TestExportChromePairsSpans|TestSetMergeTotalOrder|TestMergedMatchesStableSort|TestChunkedRingMatchesWholeRing|TestNewSetAllocatesFirstChunks|TestSinkSeesEveryEventInSeqOrder|TestSpanPropagationAcrossCells|TestPair|TestKindTableComplete|TestExportNamesRebootAndRejoin' ./internal/trace/

# drill-smoke is the fast end-to-end campaign gate: one trial of every
# scenario (paper rows and v2 extensions) through the faultdrill CLI,
# each audited from its trace, exiting nonzero on any containment failure
# or trace/harness disagreement.
drill-smoke:
	$(GO) run ./cmd/faultdrill -trials 1

# mort-check is the forensic cross-check gate: the full default campaign
# through faultdrill, which re-derives the containment verdict of every
# trial purely from the structured trace (internal/forensic) and exits
# nonzero if any verdict disagrees with the fault-injection harness's
# live-state verdict, or if the harness fails any trial (TrialResult.OK).
mort-check:
	$(GO) run ./cmd/faultdrill
	@echo "mort-check: trace-derived verdicts agree with the harness; every trial contained"

# crashloop-soak is the nightly deep gate for the availability loop:
# many extra trials of the crash-loop (scenario 12) and rolling-reboot
# (scenario 13) scenarios beyond the default campaign counts — every
# trial index draws a fresh seed — exiting nonzero on any containment
# failure, unbounded rejoin loop or trace/harness disagreement.
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
# fault, fails to close the reboot loop, reports an unbounded
# user-visible window, or audits differently from its trace.
surge-soak:
	$(GO) build -o .soak-faultdrill ./cmd/faultdrill
	for t in $$(seq 0 15); do ./.soak-faultdrill -scenario 14 -trial $$t || exit 1; done
	rm -f .soak-faultdrill
	@echo "surge-soak: 16 surge-fault trials, all contained with bounded windows"

# race runs the concurrency-sensitive packages under the race detector,
# including the cross-package determinism gates in internal/faultinject.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/faultinject/...

# bench-engine tracks the simulator's own hot paths (events/sec, allocs)
# and the interrupt-level null RPC round trip built on them.
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkEvent|BenchmarkTask' -benchmem ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkNullRPC' -benchmem ./internal/rpc/

# bench-report writes the machine-readable experiment report.
# BENCH_hive.json is committed as the tracked baseline; rerun this target
# to refresh it after perf-relevant changes.
bench-report:
	$(GO) run ./cmd/hivebench -quick -json -o BENCH_hive.json

# bench-gate is the CI regression gate for the evaluation: regenerate the
# quick report into a temporary file and require it to equal the committed
# BENCH_hive.json byte for byte. The report is a pure function of the
# simulation, so any difference is a moved metric, a new or missing
# experiment, or a new or missing metric; diff prints each changed line
# under its experiment's id. After an intentional change, refresh the
# baseline with `make bench-report` and commit it.
bench-gate:
	out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/hivebench -quick -json > "$$out" && \
	diff -U 0 -F '"id":' BENCH_hive.json "$$out"

clean:
	@:
