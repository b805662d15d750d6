GO ?= go

# Minimum statement coverage for the runtime-critical packages (cover-check).
# Raised with the shard-migration code (Store.Rebalance, BatchDelete,
# Runtime.Rebalance) so the adaptive-ownership paths cannot regress untested.
COVER_FLOOR_AMPC ?= 85
COVER_FLOOR_DHT  ?= 90

# Per-target budget for the short fuzz pass (fuzz-smoke).
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt ci wallbench-test bench-smoke bench-check cover-check fuzz-smoke examples-smoke backend-matrix chaos-smoke serving-smoke deprecation-gate

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

ci: fmt vet build test race deprecation-gate cover-check fuzz-smoke bench-check examples-smoke wallbench-test

# wallbench-test vets and tests the wall-clock benchmark.  It is a module of
# its own (ampcgraph/wallbench, importing the engine through a replace
# directive), so the root `go build ./...` and `go test ./...` never compile
# it; this target catches engine API changes that break it.
wallbench-test:
	$(GO) -C wallbench vet .
	$(GO) -C wallbench test .

# deprecation-gate fails when any caller uses the deleted machine-threading
# exported *From store methods instead of Store.View.  The gate now guards
# against the wrappers coming back: only the store's own unexported
# implementation methods (lowercase, matched as .xxxFrom( with a lowercase
# first letter) and Cache.GetFrom — not deprecated, a cache read-through has
# no View equivalent — are allowed.
deprecation-gate:
	@out=$$(grep -rnE '\.(Get|Put|Append|BatchGet|BatchPut|BatchAppend)From\(' \
		--include='*.go' . \
		| grep -v '^\./internal/dht/cache\.go:' \
		| grep -vi 'cache\.GetFrom'); \
	if [ -n "$$out" ]; then \
		echo "deprecated *From store methods called (use Store.View):" >&2; \
		echo "$$out" >&2; exit 1; \
	fi
	@echo "deprecation-gate: no deprecated *From call sites"

# examples-smoke builds and runs every example end to end (they were
# compiled but never executed by CI before); each must exit 0 on its own
# toy input, which catches API breaks that type-check but fail at runtime.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/clustering
	$(GO) run ./examples/cycles
	$(GO) run ./examples/concurrent

# backend-matrix runs the cross-backend equivalence suite once per storage
# engine (the CI backend-matrix job runs the same thing as three parallel
# jobs): every core algorithm must produce byte-identical results whether
# the shards live in in-memory maps, disk log files, or behind net/rpc.
backend-matrix:
	BENCH_BACKEND=mem $(GO) test -run 'TestBackendsPreserveAllFiveAlgorithms|TestDiskBackendCompletesPastMemoryBudget|TestAdaptiveOwnershipPreservesAlgorithms' ./internal/bench/
	BENCH_BACKEND=disk $(GO) test -run 'TestBackendsPreserveAllFiveAlgorithms|TestDiskBackendCompletesPastMemoryBudget|TestAdaptiveOwnershipPreservesAlgorithms' ./internal/bench/
	BENCH_BACKEND=rpc $(GO) test -run 'TestBackendsPreserveAllFiveAlgorithms|TestDiskBackendCompletesPastMemoryBudget|TestAdaptiveOwnershipPreservesAlgorithms' ./internal/bench/

# chaos-smoke runs the five-algorithm fault-injection equivalence suite under
# the race detector: every core algorithm, on every storage backend and both
# placement policies, must produce byte-identical output while the pinned
# fault schedule (bench.ChaosFaultPlan) injects transient errors, latency
# spikes, shard crash windows, torn disk tails and rpc connection drops —
# with the suite asserting that every recovery tier actually fired.
chaos-smoke:
	$(GO) test -race -run 'TestChaos|TestSubroundRecovery|TestFaultPlan|TestTornTail|TestRPC' ./internal/bench/ ./internal/ampc/ ./internal/dht/

# serving-smoke guards the Plan/Session/Job serving layer: the concurrency
# seams (admission, shared stores, plan cache, per-job cancellation) under
# the race detector on small inputs, then the full-scale acceptance
# properties — byte-identical concurrent outputs across every backend and
# placement, and the >= 1.5x throughput win on the hub-heavy stand-ins —
# without the race detector's slowdown.
serving-smoke:
	$(GO) test -race -short -run 'TestServing|TestConcurrentJobs|TestMaxJobs|TestAdmission|TestJobCancel|TestPlanCache|TestCompilePlan|TestNewJobOnClosed|TestOpenSharedStore|TestConcurrentMakespan' ./internal/ampc/ ./internal/bench/ ./internal/simtime/
	$(GO) test -run 'TestServingSmokeMeetsAcceptance|TestConcurrentJobsByteIdenticalAcrossBackends' ./internal/bench/

# bench-smoke runs the pinned-seed smoke benchmark (seed 1) and writes the
# machine-readable snapshot of its eight gated sections: batching (OK and TW
# stand-ins), rebalance, backend, pipeline, locality, adaptive ownership,
# chaos and serving.
bench-smoke:
	$(GO) run ./cmd/ampcbench -experiment batch -json BENCH_smoke.json

# bench-check re-runs the pinned-seed smoke benchmark and checks all eight
# sections against the committed BENCH_smoke.json: identical outputs and the
# other invariants, fractional metrics within 10%, and the committed
# variance-derived floors and ceilings.  The gate table in
# internal/bench/smokecheck.go is the source of truth.  The fresh
# measurement lands in BENCH_fresh.json (uploaded as an artifact by the
# bench-regression CI job).
bench-check:
	$(GO) run ./cmd/benchcheck -baseline BENCH_smoke.json -out BENCH_fresh.json

# cover-check enforces a statement-coverage floor on the runtime-critical
# packages (the pipelined scheduler in internal/ampc and the store layer in
# internal/dht), so new scheduler or store code cannot land untested.
cover-check:
	@$(GO) test -coverprofile=cover_ampc.out ./internal/ampc > /dev/null
	@$(GO) test -coverprofile=cover_dht.out ./internal/dht > /dev/null
	@for spec in "internal/ampc cover_ampc.out $(COVER_FLOOR_AMPC)" \
	             "internal/dht cover_dht.out $(COVER_FLOOR_DHT)"; do \
		set -- $$spec; \
		pct=$$($(GO) tool cover -func=$$2 | tail -1 | sed 's/.*[[:space:]]\([0-9.]*\)%$$/\1/'); \
		echo "coverage $$1: $$pct% (floor $$3%)"; \
		ok=$$(echo "$$pct $$3" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage of $$1 fell below $$3%" >&2; exit 1; fi; \
	done

# fuzz-smoke gives every fuzz target a short budget (the boundary-key and
# codec round-trip fuzzers of the dht and codec packages).  Go only allows
# one -fuzz pattern per invocation, so the targets run one at a time; seed
# corpora and testdata regressions always run via plain `make test`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRangeOwner -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzOwnerAffinePlacement -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzOwnershipOwnerOf -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzRederiveBoundaries -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz='FuzzRangeSet$$' -fuzztime=$(FUZZTIME) ./internal/dht
	$(GO) test -run=NONE -fuzz=FuzzDecodeNodeIDs -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzDecodeWeightedNeighbors -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzNodeIDRoundTrip -fuzztime=$(FUZZTIME) ./internal/codec
