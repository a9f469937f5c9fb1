# Convenience targets; everything is plain `go` underneath.

.PHONY: all check fmt-check test race test-race race-sharded loc report-check fuzz-smoke ssdcheck-quick ssdcheck-nightly soak-serve soak-gc obs-smoke perfbench-smoke bench bench-smoke bench-json bench-sharded bench-capacity bench-capacity-smoke bench-gc experiments experiments-full lint

all: test

# check is the full pre-merge gate: formatting, build + vet + tests, the
# race detector over the whole tree, the paper's default report pinned bit
# for bit, a short fuzz pass over the trace parsers and differential
# targets, then the quick model-based differential campaign (fast
# implementations vs paper-literal oracles; see docs/TESTING.md).
check: fmt-check test test-race race-sharded report-check fuzz-smoke ssdcheck-quick

# fmt-check fails (listing the offenders) when any file needs gofmt;
# `gofmt -l` alone exits 0 even with findings, so wrap it.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	go build ./... && go vet ./... && go test ./...

race:
	go test -race ./...

test-race: race

# race-sharded soaks the concurrent code specifically under the race
# detector: the splitter/shard/merger pipeline (with its one-shard anchor
# against the direct path in internal/sim) plus the service front-end
# (admission queues, window waits, drain) get their own longer pass
# beyond `race`.
race-sharded:
	go test -race -run 'Sharded|ShardTelemetry' ./internal/replay ./internal/sim ./internal/obs .
	go test -race -count=1 ./internal/serve ./internal/load

# loc prints the non-test Go lines of every package, then the total: the
# per-package size ledger deletions are measured against. perfbench is a
# separate module and is not counted.
loc:
	@go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
		while read -r pkg dir files; do \
			[ -n "$$files" ] || continue; \
			printf '%6d %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
		done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# report-check rebuilds the default structured report (every table, figure
# and extension; about 6 s on 2 vCPUs) and fails unless it is byte-identical
# to results/report_default.json. The JSON is deterministic and writes each
# float64 in its shortest exact form, so equal bytes mean equal bits. When a
# change moves results on purpose, regenerate the file with
#   go run ./cmd/experiments -json results/report_default.json
# and name the moved figures in the change description.
report-check:
	tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		go run ./cmd/experiments -json "$$tmp" >/dev/null && \
		diff -u results/report_default.json "$$tmp"

# soak-serve is the CI open-loop saturation soak: ssdload's generator
# drives an in-process ssdserve through a ramp crossing saturation for
# ~30s under the race detector, asserting the overload ladder engages,
# goodput survives, and the drain is clean. The -timeout is the hard
# wall-clock bound against deadlocks.
soak-serve:
	SSDSOAK=1 go test -race -count=1 -run 'TestOpenLoopSoak' -timeout 300s -v ./internal/load

# soak-gc is the GC-scheduling saturation soak: the same open-loop ramp
# against preconditioned scheduler-enabled devices with light fault
# injection, asserting queue-empty windows grant budgeted GC slices that
# actually collect victims, light-load deadlines hold, and the drain is
# clean with collections split across slices throughout. Set
# SSDSOAK_FLIGHTDIR to also capture flight-recorder dumps for upload.
soak-gc:
	SSDSOAK_GC=1 go test -race -count=1 -run 'TestGCSchedSoak' -timeout 300s -v ./internal/load

# obs-smoke exercises the tail-latency attribution plane end to end: a
# small replay with the blame table, Perfetto export, and flight
# recorder armed, then cmd/tracecheck validates the export against the
# trace-event format and the run-end flight dump is required to exist.
# Outputs land in obs-smoke/ (kept for artifact upload on CI).
obs-smoke:
	@rm -rf obs-smoke && mkdir -p obs-smoke
	go run ./cmd/ssdreplay -workload src1_2 -scale 0.02 -policy reqblock \
		-cache-mb 8 -backpressure 4 -blame \
		-perfetto obs-smoke/trace.json -trace-sample 64 \
		-flight-recorder obs-smoke > obs-smoke/report.txt
	go run ./cmd/tracecheck obs-smoke/trace.json
	@ls obs-smoke/flightrec-*-run-end.ndjson > /dev/null || \
		{ echo "obs-smoke: no run-end flight dump"; exit 1; }
	@grep -q '^P99' obs-smoke/report.txt || \
		{ echo "obs-smoke: no blame table in report"; exit 1; }
	@echo obs-smoke ok

# perfbench-smoke checks the benchmark (BENCHMARK.json, perfbench/): its
# own tests under the race detector, which `go test ./...` never runs
# because perfbench is a separate module, then a two-second traced run of
# each workload, whose result line must report "correct":true. About
# 2.5 minutes on a 2-vCPU host, two of them in the race-detected tests.
perfbench-smoke:
	cd perfbench && go test -race -count=1 .
	@for w in replay-stream replay-gc-sharded serve-http; do \
		out="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1)"; \
		echo "$$w: $$out" | cut -c 1-160; \
		echo "$$out" | grep -q '"correct":true' || \
			{ echo "perfbench-smoke: $$w did not report correct"; exit 1; }; \
	done

# fuzz-smoke runs each fuzz target briefly: not a soak, just proof that
# the targets still build and survive a short adversarial pass.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 10s ./internal/trace
	go test -run '^$$' -fuzz '^FuzzReadMSR$$' -fuzztime 10s ./internal/trace
	go test -run '^$$' -fuzz '^FuzzPageSet$$' -fuzztime 10s ./internal/cache
	go test -run '^$$' -fuzz '^FuzzPageIndex$$' -fuzztime 10s ./internal/cache
	go test -run '^$$' -fuzz '^FuzzReqBlockOps$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzHTTPHandler$$' -fuzztime 10s ./internal/serve

# ssdcheck-quick is the CI differential gate: 64 seeds × 4 policies of
# randomized workloads replayed through the fast implementations and the
# internal/oracle reference models in lockstep; any divergence is
# delta-debugged to a minimal repro before being reported.
ssdcheck-quick:
	go run ./cmd/ssdcheck -quick -repro-dir internal/oracle/testdata/failures

# ssdcheck-nightly is the scheduled randomized campaign: fresh seed
# ranges for a fixed wall-clock budget, minimized repros saved for
# upload, then the same treatment for the scheduled-vs-greedy GC
# differential (budgeted idle slices against the stamped oracle FTL).
ssdcheck-nightly:
	go run ./cmd/ssdcheck -duration 10m -seeds 512 -requests 384 -v \
		-repro-dir internal/oracle/testdata/failures
	go run ./cmd/ssdcheck -gcsched -duration 5m -seeds 512 -requests 384 -v \
		-repro-dir internal/oracle/testdata/failures

bench:
	go test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark for 10 iterations: fast
# sanity that the bench harness itself still works.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=10x -benchmem ./...

# bench-json regenerates the checked-in benchmark baseline (see
# docs/PERFORMANCE.md for the workflow and how to diff against it). Each
# PR's baseline diffs against the previous one via benchjson -old.
bench-json:
	go test -run '^$$' -bench 'BenchmarkPolicy|BenchmarkFigure8ResponseTime|BenchmarkStreamingReplay|BenchmarkMSRScan' -benchmem . \
		| go run ./cmd/benchjson -old BENCH_PR3.json > BENCH_PR4.json
	@echo wrote BENCH_PR4.json

# bench-sharded regenerates the sharded-replay scaling baseline: the
# shards=1,2,4,8 × shared/equal sweep with benchjson's derived
# speedup-vs-1shard column (see docs/PERFORMANCE.md).
bench-sharded:
	go test -run '^$$' -bench 'BenchmarkShardedReplay' -benchtime 3x -benchmem . \
		| go run ./cmd/benchjson > BENCH_PR6.json
	@echo wrote BENCH_PR6.json

# bench-capacity regenerates the victim-selection capacity-scaling
# baseline: every switchable-scan policy, indexed vs linear, 64 MB → 4 GB
# (see docs/PERFORMANCE.md). The linear 4 GB points are the slow part —
# they are the baseline the index is beating.
# The intermediate .out file (instead of a pipe) makes a benchmark
# failure fail the target — POSIX sh has no pipefail, and a pipe would
# report benchjson's exit status, not go test's.
bench-capacity:
	go test -run '^$$' -bench 'BenchmarkCapacityEviction' -benchtime 300ms -benchmem . > bench-capacity.out
	go run ./cmd/benchjson < bench-capacity.out > BENCH_PR8.json
	@rm -f bench-capacity.out
	@echo wrote BENCH_PR8.json

# bench-capacity-smoke is the CI slice: the indexed 64 MB capacity
# points, gated at 10% pages/s regression against the committed baseline.
# Only the indexed rows are gated — they are the surface this PR protects
# and they run enough iterations to be stable; the linear reference scans
# iterate too few times at this benchtime to gate that tightly.
bench-capacity-smoke:
	go test -run '^$$' -bench 'BenchmarkCapacityEviction/.*/indexed/cap=64MB$$' -benchtime 300ms -benchmem . > bench-capacity-smoke.out
	go run ./cmd/benchjson -old BENCH_PR8.json -gate 'pages/s=0.9' < bench-capacity-smoke.out > /dev/null
	@rm -f bench-capacity-smoke.out

# bench-gc regenerates the GC-scheduling tail baseline: the bursty
# open-loop step with greedy foreground-only GC versus the preemptible
# scheduler, P99/P99.9 response as the headline metrics (see
# docs/PERFORMANCE.md and docs/GC.md). load.Run paces wall-clock
# arrivals, so each of the 3 iterations costs its 3 s step.
bench-gc:
	go test -run '^$$' -bench 'BenchmarkGCSchedTail' -benchtime 3x -benchmem . > bench-gc.out
	go run ./cmd/benchjson < bench-gc.out > BENCH_PR10.json
	@rm -f bench-gc.out
	@echo wrote BENCH_PR10.json

experiments:
	go run ./cmd/experiments

experiments-full:
	go run ./cmd/experiments -full

lint: fmt-check
	go vet ./...
