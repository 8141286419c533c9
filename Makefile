# Developer entry points. `make ci` is the gate: lint (gofmt + vet) +
# build + race-enabled tests + the experiment shape assertions + executor
# parity (hot and tiered) under -race + the fault-injection (chaos) suite
# + the wire-protocol conformance/loadgen smoke suite + the HTAP
# concurrent-ingest/merge suite under -race + the observability suite
# (fingerprints, sys.* views, wire monitoring e2e) + the end-to-end
# benchmark module's own vet and tests + smoke runs of the
# vectorized-scan, compressed-execution and commit-pipeline
# micro-benchmarks.

GO ?= go

.PHONY: all lint vet build test race experiments parity chaos wire htap monitor benchself benchsmoke benchcompressed benchcommit benchbaseline bench ci

all: ci

# Formatting and static checks; fails on any gofmt diff so the wide
# refactor surface stays canonical.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The EXPERIMENTS.md shape assertions (E1..E25 tables must reproduce).
experiments:
	$(GO) test -run Experiment ./...

# Executor parity: every query shape must produce identical output on the
# interpreted and vectorized executors, under the race detector —
# with literals and with the same constants bound as $N parameters (the
# derived twins, the parameter-vs-literal stats gate, kind-mismatched and
# NULL parameters, $N deparse round trips).
parity:
	$(GO) test -race -run 'TestVectorized|TestTierParity|TestParam|TestDeparseParams' ./internal/sqlexec/

# Fault injection under the race detector: node crashes, link partitions,
# replica failover, idempotent commit retries and shared-log hole repair.
chaos:
	$(GO) test -race -run 'TestFT' ./internal/soe/ ./internal/sharedlog/

# Wire-protocol conformance under the race detector: the e2e client/server
# suite, the extended-protocol state machine (malformed frames, Bind to a
# missing statement, skip-until-Sync), and the loadgen smoke run — a small
# in-process connection fleet, bounded duration, zero protocol errors.
wire:
	$(GO) test -race -run 'TestWire|TestState|TestLoadSmoke' ./internal/pgwire/

# The write-scale HTAP suite under the race detector: merge/snapshot
# parity property test, multi-writer conflict matrix, group-commit
# batching, merge-epoch aborts, bounded RunInTxn retries, WAL recovery
# with interleaved background merges, the SQL-level chaos triangle
# (ingest + merge daemon + analytic scans), and the E24 experiment shape.
htap:
	$(GO) test -race -run 'TestMergeSnapshotParity|TestConflictMatrix|TestMergeEpoch|TestGroupCommit|TestRunInTxnBounded|TestOwnInserts' ./internal/txn/
	$(GO) test -race -run 'TestRecoveryWithBackgroundMerges' ./internal/wal/
	$(GO) test -race -run 'TestHTAPChaos' ./internal/sqlexec/
	$(GO) test -run 'TestE24Shape' ./internal/experiments/

# The observability suite under the race detector: the latency
# histogram against an exact quantile oracle (lifetime buckets, merge
# through JSON, phase deltas, Prometheus buckets), fingerprint
# normalization, the sys.* views on both executors, statement-stats
# aggregation, quantiles and eviction, slow-log retention, the registry <->
# sys.m_metrics <-> Prometheus consistency contract, the end-to-end
# wire monitoring test (a SQL client polling sys.m_statements and
# sys.m_connections under concurrent load), and the E25 self-observation
# experiment shape.
monitor:
	$(GO) test -race -run 'TestHistogram|TestMerge|TestDelta|TestPrometheus' ./internal/stats/
	$(GO) test -race -run 'TestNormalizeSQL|TestFingerprint|TestSysViews|TestStatementStats|TestSlowLogRetention|TestMetricsConsistency' ./internal/sqlexec/
	$(GO) test -race -run 'TestMonitoringViewsOverWire' ./internal/pgwire/
	$(GO) test -run 'TestE25Shape' ./internal/experiments/

# The end-to-end benchmark (perfbench/) is a nested module that builds
# against the program's API: vet it and run its tests (~7 s, writes no
# files), so an API change that breaks the benchmark fails here.
benchself:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Quick pass over the vectorized scan/aggregation micro-benchmarks, gated
# by cmd/benchguard against the committed BENCH_vectorized_baseline.json:
# any ns/op regression beyond 25% fails the target. benchguard also fails
# if a baseline benchmark is missing from the output, so a crashed bench
# run cannot slip through the pipe as a pass.
benchsmoke:
	$(GO) test -run xxx -bench 'BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg' -benchtime=100x . | $(GO) run ./cmd/benchguard -match 'BenchmarkScan|BenchmarkParallelAgg'

# Compressed-execution micro-benchmarks: the code-valued join probe and
# the run-folding group-by against their row-at-a-time counterparts,
# gated by the same baseline file (join/group-by subset via -match).
benchcompressed:
	$(GO) test -run xxx -bench 'BenchmarkJoinDict|BenchmarkGroupByRLE' -benchtime=20x . | $(GO) run ./cmd/benchguard -match 'BenchmarkJoinDict|BenchmarkGroupByRLE'

# Commit-pipeline micro-benchmarks: concurrent disjoint-table committers
# through the group-commit path vs the serialized baseline (one fsync per
# batch vs one per commit), gated by the same baseline file.
benchcommit:
	$(GO) test -run xxx -bench 'BenchmarkCommit(GroupDisjoint|Serialized)$$' -benchtime=1000x . | $(GO) run ./cmd/benchguard -match 'BenchmarkCommit'

# Regenerate the committed benchmark baseline after an intentional perf
# change; benchguard -write preserves the workload prose and recomputes
# the derived speedups. See README "Benchmark baseline" for the workflow.
# Two passes merge into one file: the commit benchmarks need more
# iterations than the big-table scans for the group batching to settle.
benchbaseline:
	$(GO) test -run xxx -bench 'BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg|BenchmarkJoinDict|BenchmarkGroupByRLE' -benchtime=10x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkCommit(GroupDisjoint|Serialized)$$' -benchtime=1000x -benchmem . | $(GO) run ./cmd/benchguard -write

bench:
	$(GO) test -bench=. -benchmem ./...

ci: lint build race experiments parity chaos wire htap monitor benchself benchsmoke benchcompressed benchcommit
