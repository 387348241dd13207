# Convenience targets for the Chandy–Misra (PODC 1982) reproduction.

GO ?= go

.PHONY: all build vet lint test race gates bench bench-smoke check fuzz-smoke chaos-smoke crash-smoke host-smoke load-smoke cluster-smoke cover experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting and static analysis. Any file gofmt would rewrite fails the
# target (gofmt -l prints it). Then staticcheck when it is on PATH (the
# CI lint job installs it and runs this target), falling back to go vet
# so the target works on a box with nothing but the Go toolchain.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation and live-heap gates, ten times each and WITHOUT the race
# detector: under -race the instrumented runtime shrinks the heap gate's
# readings several-fold, so the race-only test job can never see it
# fail (CI runs this as the gates job). TestTxnAllocGates runs the local,
# remote and callbacks rigs (the last sets every callback the benchmark
# does); TestPooledFramesUnderLoad holds the pooled frames' ownership
# rule over 20 000 cross-shard transactions, so a frame recycled twice
# fails this job as well as the race-detector one. TestLinkFlushAllocatesNothing
# holds a TCP link's flush to no allocation; TestOpenScanReadsLogicalBytes
# holds Open plus Scan of a log whose active segment is preallocated to
# 64 MiB under 1 MiB allocated. The latter reads TotalAlloc, which -race
# inflates, so it skips there and only this job can see it fail.
gates:
	$(GO) test -count=10 -run 'TestTxnAllocGates|TestHeapFlatInCommitCount|TestTimerArmSteadyStateAllocs|TestProbeStepAllocGate|TestPooledFramesUnderLoad|TestLinkFlushAllocatesNothing|TestOpenScanReadsLogicalBytes' ./internal/ddb ./internal/engine ./internal/transport ./internal/wal

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark's harness (BENCHMARK.json, benchmark/) end to end
# at smoke length: vet it, then assemble the fsync=always cluster, run
# its output checks (oracle audit, every admitted transaction commits,
# no WAL or write errors) and a few hundred transactions per phase. The
# numbers mean nothing at this length; a broken harness or a journal
# that loses the write-ahead orderings exits nonzero (CI runs this as
# the bench-smoke job). cluster-uniform is the north-star row, so its
# set-up and checks run here too. cluster-contended is the one row with
# victim aborts, retries and detection-latency samples, so its
# declaration checks run here as well. The traced host-local run adds the
# cost ladder, whose probe rung relies on Submit waiting for its step
# under InitiateManual.
bench-smoke:
	$(GO) vet ./benchmark
	$(GO) run ./benchmark -quick -workload cluster-fsync
	$(GO) run ./benchmark -quick -workload cluster-uniform
	$(GO) run ./benchmark -quick -workload cluster-contended
	$(GO) run ./benchmark -quick -trace -workload host-local

# Exhaustive DPOR model check over the exploration corpus.
check:
	$(GO) run ./cmd/cmhcheck -brute

# Short fuzz runs of the native fuzz targets (CI runs this as the
# fuzz-smoke job; a new fuzz target is added here and nowhere else).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWFGTransitions -fuzztime=10s ./internal/wfg
	$(GO) test -run='^$$' -fuzz=FuzzLockManager -fuzztime=10s ./internal/ddb
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeIngress -fuzztime=10s ./internal/conformance
	$(GO) test -run='^$$' -fuzz=FuzzOpenLoopConfig -fuzztime=10s ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzWALSegment -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzWALGroupCut -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzClusterWire -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzDecoder -fuzztime=10s ./internal/msg
	$(GO) test -run='^$$' -fuzz=FuzzWFGDCanonical -fuzztime=10s ./internal/msg

# Seeded fault-injection conformance under the race detector: the six
# committed chaos schedules (crash / restart / partition / delay / dup)
# plus TCP connection-drop storms, with one engine.Host per node and on
# the two-host shared link, cross-checked against the WFG oracle (CI
# runs this as the chaos-smoke job).
chaos-smoke:
	$(GO) test -race ./internal/faultinject/
	$(GO) test -race -run 'TestFaultScheduleConformance|TestWirePerturbationMatchesFaultFreeBaseline|TestTCPChaosConformance|TestTCPMuxChaosConformance' ./internal/conformance/

# Durable crash/restore smoke under the race detector: the WAL and
# engine checkpoint unit tests, the shard timer wheel's tests, the ≥8-seed
# sim + TCP crash/restore conformance sweeps (verdicts byte-identical to
# the fault-free baseline), the ddb restore and detection-timer tests (a
# restored wait must re-arm its timer), and the cmhnode kill-and-resume
# restart test (CI runs this as the crash-smoke job).
crash-smoke:
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'TestSimCrashRestoreConformance|TestTCPCrashRestoreConformance' ./internal/conformance/
	$(GO) test -race -run 'Checkpoint|Restore|WAL|Timer' ./internal/engine/
	$(GO) test -race -run 'Restore|Timer' ./internal/ddb/
	$(GO) test -race -run 'TestHostModeDurableRestart|TestWALDirRequiresHostMode' ./cmd/cmhnode/

# Host-scale smoke: 8192 processes co-hosted on one sharded runtime
# behind ONE multiplexed listener, full request ring, deadlock detected
# end-to-end. Then the durable pair at the same scale against one fresh
# directory: the first run wires the ring and writes its checkpoint, the
# second restores the ring from it (resumed=true) and detects the cycle
# it inherited (CI runs this as the host-smoke job).
host-smoke:
	$(GO) run ./cmd/cmhnode -procs 8192 -shards 8 -initiate -timeout 60s
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/cmhnode" ./cmd/cmhnode; \
	"$$d/cmhnode" -procs 8192 -shards 8 -wal-dir "$$d/wal" -fsync interval > "$$d/first"; \
	grep 'final checkpoint written' "$$d/first"; \
	"$$d/cmhnode" -procs 8192 -shards 8 -wal-dir "$$d/wal" -fsync interval -initiate -timeout 60s > "$$d/second"; \
	cat "$$d/second"; grep -q 'resumed=true' "$$d/second"; grep -q 'DEADLOCK detected' "$$d/second"

# Open-loop workload smoke: the seeded generator over both runtimes
# with the oracle attached and no victim aborts — zero protocol errors,
# zero false deadlocks, zero uncovered cycles or the run exits nonzero
# (CI runs this as the load-smoke job).
load-smoke:
	$(GO) run ./cmd/cmhload -runtime sim -procs 8 -keys 96 -dist zipfian -theta 0.9 -rate 800 -duration 1s -max-txns 600 -txn-min 2 -txn-max 4 -write-frac 0.8 -think 300us -hold 800us -delay 2ms -victim none -retry=false -check -seed 3 -min-committed 1 > /dev/null
	$(GO) run ./cmd/cmhload -runtime host -procs 64 -shards 4 -keys 4096 -dist zipfian -theta 0.9 -rate 1500 -duration 1s -max-txns 1500 -txn-min 2 -txn-max 3 -write-frac 0.5 -think 0 -hold 200us -delay 2ms -victim none -retry=false -check -seed 7 -min-committed 1 > /dev/null

# Cluster control-plane smoke under the race detector: the full
# cluster package (gossip membership, placement ring, wire codec,
# live-migration FIFO), the ≥8-seed RunCluster conformance sweep
# (verdicts byte-identical to the sim across placements and a mid-run
# migration), and the cmhnode -seed/-join CLI demo: detection across
# hosts, the leave-before-checkpoint ordering, and a lease verdict on a
# dead host aborting the waits on its processes (CI runs this as the
# cluster-smoke job).
cluster-smoke:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestClusterConformance' ./internal/conformance/
	$(GO) test -race -run 'TestClusterMode' ./cmd/cmhnode/

# Combined statement coverage of the runtime, engine and harness
# packages, held to a floor (CI runs this as the coverage job). The
# floor is the coverage at merge time minus a small noise margin for
# concurrency-dependent paths; the write-ahead log's and the
# crash/restore machinery's error branches (torn segments, fsync
# failures, rebuild paths) are inherently hard to reach. Raise it when
# coverage rises.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/engine/...,./internal/core/...,./internal/ddb/...,./internal/conformance/...,./internal/faultinject/...,./internal/msg/...,./internal/workload/...,./internal/metrics/...,./internal/wal/... ./internal/... ./cmd/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "combined engine+harness coverage: $${total}%"; \
	awk -v t="$$total" 'BEGIN { if (t+0 < 91.0) { print "coverage " t "% is below the 91.0% floor"; exit 1 } }'

# Print every evaluation table (EXPERIMENTS.md source). Every table is
# also a golden test: `make test` compares each byte for byte with
# internal/experiments/testdata, and
# `go test ./internal/experiments -run TestGoldenTables -update`
# rewrites those files after an intended change. Wall-clock figures
# come from the repo benchmark (BENCHMARK.json, benchmark/).
experiments:
	$(GO) run ./cmd/cmhbench

# Every example under the race detector: the in-process ones run on a
# Host shard goroutine concurrently with main (CI runs this as the
# examples job).
examples:
	$(GO) run -race ./examples/quickstart
	$(GO) run -race ./examples/diningphilosophers
	$(GO) run -race ./examples/bankledger
	$(GO) run -race ./examples/livenet
	$(GO) run -race ./examples/messagehub

clean:
	rm -f test_output.txt bench_output.txt cover.out
