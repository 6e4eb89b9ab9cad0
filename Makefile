GO      ?= go
BENCH   ?= BenchmarkExecuteWorkload|BenchmarkSelection|BenchmarkCollectRows|BenchmarkStageBreakdown|BenchmarkStreamingMemory|BenchmarkPaperScaleMemory|BenchmarkExportThroughput
BENCHED  = ./internal/engine .

.PHONY: build test race bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine ./internal/keygen ./internal/nonkey ./internal/parallel ./internal/validate ./internal/genplan ./internal/obs ./internal/obshttp ./internal/storage ./internal/trace

# bench refreshes the "current" snapshot of BENCH_engine.json: the executor
# micro-benchmarks (ns/op, allocs/op, B/op, rows/sec) plus the root
# BenchmarkStageBreakdown, whose per-stage span metrics (build_ms, nonkey_ms,
# keygen_ms, ...) give the file a stage-latency trajectory, and the
# out-of-core benchmarks, whose metrics
# record peak heap per generation mode (inmem_peak_mb, stream_peak_mb,
# peak_ratio_x) and export throughput of the reference and streaming encoders
# (mb_per_s).
# StageBreakdown skips loudly instead of writing
# a quiet number if keygen regresses past 2x the recorded snapshot. Both packages run
# in ONE go test invocation so benchjson writes one combined snapshot.
# The "baseline" snapshot is the recorded pre-vectorization executor;
# re-anchor it only deliberately, with
#   go test $(BENCHED) -run '^$$' -bench '$(BENCH)' -benchmem | go run ./cmd/benchjson -set-baseline
bench:
	$(GO) test $(BENCHED) -run '^$$' -bench '$(BENCH)' -benchmem -count 1 \
		| $(GO) run ./cmd/benchjson -o BENCH_engine.json

# bench-smoke compiles and runs every engine benchmark, the column-fill
# kernel benchmark and the SSB annotation benchmark once — a CI guard that the
# harnesses keep working without paying for stable measurements. (The root
# figure benchmarks are full pipeline runs; smoke-testing those is `make
# test`.)
bench-smoke:
	$(GO) test ./internal/engine ./internal/nonkey ./internal/trace -run '^$$' -bench . -benchtime 1x
