# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet test race race-hot race-stress bench-check bench-pair loc metrics-lint lint lint-install fmt-check chaos chaos-cluster chaos-qos cluster-smoke soak-spill experiments stress-paper cover fmt clean

# Pinned linter versions. CI installs exactly these (the lint job runs
# `make lint-install`); bump them deliberately, in one place.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

all: check

# The full PR gate — the exact set CI runs (.github/workflows/ci.yml
# invokes this one target, so local `make check` and CI cannot drift):
# formatting, build, vet, static analysis, the full test suite, the
# race detector across every package, the benchmark module's own vet and
# tests, the metric-name lint, and the line counts.
check: fmt-check build vet lint test race bench-check metrics-lint loc

# Static analysis and known-vulnerability scan. Soft-skips any tool
# that is not installed (offline dev containers cannot `go install`);
# CI always installs both first, so the wall is hard where it matters.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (make lint-install)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (make lint-install)"; \
	fi

# Install the pinned linter versions (requires network).
lint-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Fail (listing the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Verify metric registrations against docs/OBSERVABILITY.md: naming
# convention, no duplicate registrations, catalogue complete both ways,
# and every series smdctl or the experiments read by name is produced.
metrics-lint:
	$(GO) run ./cmd/metricslint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detect the packages with lock-per-heap concurrency, and the
# cluster hook and replication that sit on the RESP server (fast subset
# of `make race`, wired into `make check`). The whole run is kept in
# race-hot.log (gitignored) and only the package results, failing tests,
# panics and data races are printed, so a flake leaves its name behind.
race-hot:
	@$(GO) test -race ./internal/core ./internal/sds ./internal/kvstore ./internal/spill ./internal/clusterkv >race-hot.log 2>&1; status=$$?; \
	grep -E '^(ok|FAIL)|--- FAIL|^panic:|DATA RACE' race-hot.log; \
	if [ $$status -ne 0 ]; then echo "race-hot: failed; the full output is in race-hot.log"; fi; exit $$status

# The reclaim stress list, by name: lock-free readers racing revocation
# (condemn + epoch-retire), slot, page and span reuse under the records
# they copy through, and index rebuilds, the hash table against its
# map model, the page-wise victim order, the tier deal, the
# model-checked histories under demands, and spill promotions racing
# writes, deletions and each other are the interleavings a pinned
# GOMAXPROCS shakes out (CI runs this at 1, 2 and 4). A name that
# matches no test would silently shrink a -run filter, so the target
# fails unless every name in the list ran and passed.
STRESS_TESTS = TestEpochReclaimRace TestHashTableLockFreeReclaimRace \
	TestKeysUnderReaderSlotExhaustion TestEpochRetireDefersAndDrains \
	TestEpochRetireDemandDrain TestEpochLimboBounded \
	TestParkedReaderPinsPastBatches TestLimboNeverGrowsHeap \
	TestReclaimTakesWholePagesInAgeOrder TestSecondChanceTenantVetoesItsPage \
	TestTierDealSharesTheDemand TestTierDealSkipsTheDry TestTierDealContainsAPanic \
	TestReclaimDoesNotAskTwiceForPagesInLimbo TestReclaimOrderIsStoreWide \
	TestReclaimOrderMixedSizes TestEveryEntryPointUnderReclaim \
	TestHashTablePutGetProperty TestHashTableLockFreeReadersAcrossRebuilds \
	TestHashTableRecordLifetimeUnderChurn \
	TestSpillPromotionSetRace TestSpillTablePromotionRace \
	TestSpillConcurrentGetsOfOneKey
empty :=
space := $(empty) $(empty)
race-stress:
	@out="$$($(GO) test -race -count=2 -v -run '^($(subst $(space),|,$(strip $(STRESS_TESTS))))$$' ./internal/core ./internal/sds ./internal/kvstore 2>&1)"; status=$$?; \
	echo "$$out" | grep -E '^(--- |ok|FAIL|panic)'; \
	for t in $(STRESS_TESTS); do \
		echo "$$out" | grep -q -e "^--- PASS: $$t " || { echo "race-stress: $$t did not run and pass"; status=1; }; \
	done; exit $$status

# bench/ is a module of its own (it is what BENCHMARK.json runs), so
# `go build ./...` and `go test ./...` at the root never compile it.
# Vet and test it here, so a kvstore API break against the benchmark is
# caught before the benchmark pipeline is what finds it.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Same-session A/B for a performance claim (ROADMAP item 4):
# `make bench-pair W=<workload>|all [PROCS=1,2,...] [REF=<commit>] [N=10]
# [SEED=1] [SECONDS=24] [TRACE=1]` extracts REF once with `git archive`
# under .bench_build/, runs `bash bench/run.sh` for the workload — or,
# with W=all, for every workload in BENCHMARK.json — at each PROCS width
# (GOMAXPROCS; the machine's default without PROCS) on it and on the
# working tree, alternating which side goes first from pair to pair, and
# prints per workload, width and metric both medians and quartiles, the
# pairs won and a verdict; non-zero exit when any workload's median at
# any width is worse than its bound in BENCHMARK.json. TRACE=1 runs the
# benchmark traced (`--trace 1`), which reports the per-layer metrics in
# place of the end-to-end ones; they have no bound, and their verdicts
# do not set the exit status. REF defaults to HEAD when the tree is
# dirty, else HEAD~1. See cmd/benchpair.
N ?= 10
SEED ?= 1
SECONDS ?= 24
bench-pair:
	@test -n "$(W)" || { echo "usage: make bench-pair W=<workload>|all [PROCS=1,2,...] [REF=<commit>] [N=10] [SEED=1] [SECONDS=24] [TRACE=1]"; exit 2; }
	$(GO) run ./cmd/benchpair -workload $(W) $(if $(PROCS),-procs $(PROCS)) $(if $(REF),-ref $(REF)) -n $(N) -seed $(SEED) -seconds $(SECONDS) $(if $(filter 1,$(TRACE)),-trace)

# Non-test Go line counts, for tracking code size: the kvstore, alloc,
# core, sds, clusterkv and experiments packages, the repository outside
# the benchmark module, and smdctl.
loc:
	@printf 'internal/kvstore non-test Go lines: '
	@find internal/kvstore -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/alloc non-test Go lines: '
	@find internal/alloc -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/core non-test Go lines: '
	@find internal/core -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/sds non-test Go lines: '
	@find internal/sds -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/clusterkv non-test Go lines: '
	@find internal/clusterkv -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'internal/experiments non-test Go lines: '
	@find internal/experiments -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'repo non-test Go lines outside bench/: '
	@find . -path ./bench -prune -o -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'cmd/smdctl non-test Go lines: '
	@find cmd/smdctl -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# Crash-recovery chaos suite (DESIGN.md "Chaos invariants"): real smd
# and softkv processes, the daemon killed by an armed fault point
# mid-reclaim, a torn spill write, and a kill -9 of the KV server.
# Three consecutive runs — the schedule is seeded, so a flake is a bug.
chaos:
	$(GO) test -tags chaos -run TestChaosKillMidReclaim -count=3 -v -timeout 10m .

# Cluster chaos: three real softkv nodes, one killed mid-load by the
# armed clusterkv.node.crash point; the survivors must heal the ring,
# redirects must converge, and no acked eventual-mode write may be
# lost. Three consecutive seeded runs, as above.
chaos-cluster:
	$(GO) test -tags chaos -run TestChaosClusterNodeKill -count=3 -v -timeout 10m .

# QoS chaos: the E14 antagonist-tenant harness under seeded load — the
# best-effort hot-key-storm tenant must absorb reclamation, the
# starvation floor must hold, and the frontend's stall ratio must stay
# bounded. Three consecutive seeded runs, as above.
chaos-qos:
	$(GO) test -tags chaos -run TestChaosQoS -count=3 -v -timeout 10m .

# The 3-process cluster smoke (also run nightly): form a ring, write
# and MGET across slots, shut down cleanly.
cluster-smoke:
	$(GO) test -run TestClusterSmoke3Proc -count=1 -v -timeout 5m .

# Soak the spill tier: the YCSB-style load generator against a real
# RESP server with disk demotion enabled, squeezed continuously by a
# synthetic daemon (TestSoakSpill; skipped without SOFTMEM_SOAK).
soak-spill:
	SOFTMEM_SOAK=1 $(GO) test -race -run TestSoakSpill -count=1 -v -timeout 10m ./internal/kvstore

# Regenerate every table and figure softbench produces (DESIGN.md E1-E11
# and E14).
experiments:
	$(GO) run ./cmd/softbench -experiment all

# Paper-scale stress table (E2-E4).
stress-paper:
	$(GO) run ./cmd/softbench -experiment stress -allocs 977000 -extra 500000

cover:
	$(GO) test -cover ./internal/...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
