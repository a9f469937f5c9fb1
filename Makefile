# Convenience targets; everything is plain `go` underneath.

.PHONY: all check fmt-check test race test-race race-sharded loc report-check report-full-check fuzz-smoke ssdcheck-quick ssdcheck-nightly soak-serve soak-gc obs-smoke perfbench-smoke bench bench-smoke experiments experiments-full lint

all: test

# check is the full pre-merge gate: formatting, build + vet + tests, the
# race detector over the whole tree, the reports pinned bit for bit (the
# default JSON, its GC-heavy twin and the text), a short fuzz pass over the
# trace parsers and differential targets, then the quick model-based
# differential campaign (fast implementations vs paper-literal oracles; see
# docs/TESTING.md).
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
# detector: the router/shard/merger pipeline (with its one-shard anchor
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

# report-check rebuilds three reports and fails unless each is
# byte-identical to its pin (about 9 s on 2 vCPUs in all):
#   - the default structured report (every table, figure and extension),
#     results/report_default.json;
#   - the same report on devices preconditioned to 98%, whose GC migrates
#     pages (write amplification above 1 on proj_0, erases on src1_2), so
#     that a change to garbage collection cannot move a victim unseen:
#     results/report_gc.json;
#   - the default text report, results/experiments_default.txt.
# The JSON is deterministic and writes each float64 in its shortest exact
# form, so equal bytes mean equal bits. When a change moves results on
# purpose, regenerate the files with
#   go run ./cmd/experiments -json results/report_default.json
#   go run ./cmd/experiments -precondition 0.98 -json results/report_gc.json
#   go run ./cmd/experiments > results/experiments_default.txt
# and name the moved figures in the change description.
report-check:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		go run ./cmd/experiments -json "$$dir/default.json" >/dev/null && \
		diff -u results/report_default.json "$$dir/default.json" && \
		go run ./cmd/experiments -precondition 0.98 -json "$$dir/gc.json" >/dev/null && \
		diff -u results/report_gc.json "$$dir/gc.json" && \
		go run ./cmd/experiments > "$$dir/default.txt" && \
		diff -u results/experiments_default.txt "$$dir/default.txt"

# report-full-check is report-check at the paper's scale: `experiments
# -full` (Scale 10, the 128 GiB device) rebuilt into a temporary file and
# diffed byte for byte against results/report_full.json. It takes about
# 5.5 minutes and 2 GiB resident on 2 vCPUs, so it runs in a scheduled CI
# job of its own, not in check. Regenerate the pin with
#   go run ./cmd/experiments -full -json results/report_full.json
report-full-check:
	tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		go run ./cmd/experiments -full -json "$$tmp" >/dev/null && \
		diff -u results/report_full.json "$$tmp"

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
# trace-event format, the export must hold at least one list-transition
# and one victim-batch instant (the policy's transition sink is wired),
# and the run-end flight dump is required to exist. Outputs land in
# obs-smoke/ (kept for artifact upload on CI).
obs-smoke:
	@rm -rf obs-smoke && mkdir -p obs-smoke
	go run ./cmd/ssdreplay -workload src1_2 -scale 0.02 -policy reqblock \
		-cache-mb 8 -backpressure 4 -blame \
		-perfetto obs-smoke/trace.json -trace-sample 64 \
		-flight-recorder obs-smoke > obs-smoke/report.txt
	go run ./cmd/tracecheck obs-smoke/trace.json
	@for cat in list evict; do \
		grep -q '"cat":"'$$cat'","ph":"i"' obs-smoke/trace.json || \
			{ echo "obs-smoke: no $$cat instant in the export"; exit 1; }; \
	done
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
	go test -run '^$$' -fuzz '^FuzzAgedExtent$$' -fuzztime 10s ./internal/ftl
	go test -run '^$$' -fuzz '^FuzzLogHist$$' -fuzztime 10s ./internal/metrics
	go test -run '^$$' -fuzz '^FuzzHTTPHandler$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzOpQuery$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzSubmitBounds$$' -fuzztime 10s ./internal/serve

# ssdcheck-quick is the CI differential gate: 64 seeds of randomized
# workloads per policy replayed through the fast implementations and the
# internal/oracle reference models in lockstep, in all three modes (six
# policies with the FTL pair, the three heap-indexed ones without it, four
# GC-scheduling flavors: 832 runs); any divergence is delta-debugged to a
# minimal repro before being reported.
ssdcheck-quick:
	go run ./cmd/ssdcheck -quick -repro-dir internal/oracle/testdata/failures

# ssdcheck-nightly is the scheduled randomized campaign: fresh seed
# ranges for a fixed wall-clock budget, minimized repros saved for
# upload, then the same treatment for the scheduled-vs-greedy GC
# differential (budgeted idle slices against the stamped oracle FTL) and
# for the heap-indexed policies against their paper-literal oracles
# (FAB, LFU, PUD-LRU over wide address ranges): 10 + 5 + 5 minutes.
ssdcheck-nightly:
	go run ./cmd/ssdcheck -duration 10m -seeds 512 -requests 384 -v \
		-repro-dir internal/oracle/testdata/failures
	go run ./cmd/ssdcheck -gcsched -duration 5m -seeds 512 -requests 384 -v \
		-repro-dir internal/oracle/testdata/failures
	go run ./cmd/ssdcheck -vindex -duration 5m -seeds 512 -requests 512 -v \
		-repro-dir internal/oracle/testdata/failures

bench:
	go test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark for 10 iterations: fast
# sanity that the bench harness itself still works.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=10x -benchmem ./...

experiments:
	go run ./cmd/experiments

experiments-full:
	go run ./cmd/experiments -full

lint: fmt-check
	go vet ./...
