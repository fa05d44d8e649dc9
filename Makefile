# Reproduction of "Compiler Optimization of Memory-Resident Value
# Communication Between Speculative Threads" (CGO 2004).

GO ?= go

.PHONY: all build vet lint test test-short race diff bench bench-smoke profile verify-fuzz fuzz chaos crash scenario-smoke cluster-smoke figs csv serve clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/lint.md): determinism (D001),
# key-purity (K001), seam-bypass (S001), journal-order (J001) and
# lock-hygiene (L001) rules over the whole tree. Zero findings gate:
# any unsuppressed finding (or unused/malformed suppression) fails.
lint:
	$(GO) run ./cmd/tlslint ./...

# Full test suite, including the reproduction regression tests and the
# property tests over random programs (a few minutes).
test:
	$(GO) test ./...

# Quick tests only (skips the full reproduction and property runs).
test-short:
	$(GO) test -short ./...

# Concurrency-sensitive packages under the race detector: the job
# engine, the artifact store, and the concurrent (benchmark × policy)
# fan-out over a shared Run.
race:
	$(GO) test -race ./internal/jobs/ ./internal/store/ ./internal/fault/ ./internal/resilience/ ./internal/parallel/ ./internal/scenario/ ./internal/cluster/
	$(GO) test -race -run 'TestConcurrentSimulate|TestPrewarmMatchesSequential|TestConcurrentBuildsShareNoPooledObjects' .

# Differential determinism suites under the race detector: the parallel
# pipeline must produce byte-identical artifacts at every -j (compiler
# internals, benchmark-level fingerprints, golden files) and at every
# point of the GOMAXPROCS {1,8} x -j {1,8} cross-product
# (TestParallelDiffMatrix — scheduler-dimension invariance on top of
# worker-count invariance).
diff:
	$(GO) test -race -short -run 'TestParallelDiff|TestWorkersExcluded' ./internal/core/
	$(GO) test -race -short -run 'TestParallelDiff|TestGolden' .

# Long fuzz-verify run: compile 200 generated programs and statically
# verify the synchronization of every binary (see docs/verify.md).
VERIFY_FUZZ_N ?= 200
verify-fuzz:
	VERIFY_FUZZ_N=$(VERIFY_FUZZ_N) $(GO) test -run TestProgenVerifyFuzz ./internal/verify/

# Fuzz smoke: every native fuzz target for a fixed 10s each — the
# compact trace encoding round-trip and the scenario parser (YAML,
# decoder, validate). A failing input lands in the package's
# testdata/fuzz/ directory; commit it as a seed with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEventsRoundTrip$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/scenario/

# Fault-injection suite for the daemon: disk faults, panicking/slow
# jobs, breaker trip/recovery, admission shed, graceful drain — all
# under the race detector (see docs/tlsd.md, "Operations").
chaos:
	$(GO) test -race -run 'Chaos|GracefulDrain|WriteErrors' ./cmd/tlsd/

# Kill-9 harness for the daemon: re-execs tlsd as a child process,
# SIGKILLs it at every durability-sensitive point (mid-journal-append,
# between temp write and rename, mid-job), restarts it over the same
# cache dir, and asserts convergence and crash-loop poisoning (see
# docs/tlsd.md, "Crash recovery").
crash:
	$(GO) test -race -run 'TestCrash' ./cmd/tlsd/

# Scenario smoke: type-check every scenario, then run the CI chaos
# scenario twice with the same seed — race-enabled binaries, real tlsd
# child processes, real SIGKILL + crash recovery — and byte-compare
# the two reports' deterministic sections (the determinism contract of
# docs/scenarios.md). scenario-report.json is the archived evidence.
SCENARIO_SEED ?= 42
scenario-smoke:
	mkdir -p bin
	$(GO) build -race -o bin/tlsd ./cmd/tlsd
	$(GO) build -race -o bin/tlssim ./cmd/tlssim
	bin/tlssim validate scenarios/*.yaml
	bin/tlssim run scenarios/chaos-short.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o scenario-report.json -det scenario-det-a.json
	bin/tlssim run scenarios/chaos-short.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det scenario-det-b.json
	cmp scenario-det-a.json scenario-det-b.json

# Cluster smoke: the self-healing proof. A 3-node
# consistent-hash tlsd cluster is SIGKILLed at its key-owner mid-burst,
# twice at a fixed seed with race-enabled binaries; the run passes only
# if the successor adopts every journaled-pending job (zero lost, zero
# double-executed — per-key execution counters), the fleet reconverges,
# and the two reports' deterministic sections compare byte-identical.
# The elastic-membership proof then rolls a 5-node cluster under a
# 1000-client fleet — rolling restart of every node, a sixth node
# joining, an original node decommissioning — twice at the same seed,
# asserting zero lost jobs, exactly-once execution, post-roll replica
# convergence, and byte-identical deterministic sections. The three
# report files are the archived evidence.
cluster-smoke:
	mkdir -p bin
	$(GO) build -race -o bin/tlsd ./cmd/tlsd
	$(GO) build -race -o bin/tlssim ./cmd/tlssim
	bin/tlssim validate scenarios/cluster-kill9-adoption.yaml scenarios/cluster-partition.yaml scenarios/cluster-rolling.yaml
	bin/tlssim run scenarios/cluster-kill9-adoption.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-report.json -det cluster-det-a.json
	bin/tlssim run scenarios/cluster-kill9-adoption.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det cluster-det-b.json
	cmp cluster-det-a.json cluster-det-b.json
	bin/tlssim run scenarios/cluster-partition.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-partition-report.json
	bin/tlssim run scenarios/cluster-rolling.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-rolling-report.json -det cluster-rolling-det-a.json
	bin/tlssim run scenarios/cluster-rolling.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det cluster-rolling-det-b.json
	cmp cluster-rolling-det-a.json cluster-rolling-det-b.json

# One benchmark per paper figure/table plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Parity canary (CI): fails if -j4 is more than 10% slower than -j1 on
# either gate — the tlsbench-shaped pipeline over three benchmarks, or
# one parser build at the host-aware GOMAXPROCS (min of 3 reps).
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -count=1 -run '^TestParityCanary$$' -timeout 30m -v .

# CPU and heap profiles of the two hot paths (compiler pipeline on the
# largest workload; raw simulator throughput on both simulator loops,
# speculative regions and sequential segments). Inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`; the live daemon
# equivalent is `tlsd -pprof` (see docs/perf.md).
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCompilePipeline|BenchmarkSimulator' -benchtime 10x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Regenerate every figure and table of the paper.
figs:
	$(GO) run ./cmd/tlsbench

# Figures as CSV (e.g. FIG=10).
FIG ?= 10
csv:
	$(GO) run ./cmd/tlsbench -fig $(FIG) -format csv

# The HTTP simulation service (content-addressed store + job engine).
ADDR ?= :8149
serve:
	$(GO) run ./cmd/tlsd -addr $(ADDR)

clean:
	$(GO) clean ./...
