GO ?= go

.PHONY: build test race bench-smoke ci-selectors

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine ./internal/keygen ./internal/nonkey ./internal/parallel ./internal/validate ./internal/genplan ./internal/obs ./internal/obshttp ./internal/storage ./internal/trace ./internal/workload

# bench-smoke compiles and runs every engine benchmark (BenchmarkProbeKernel
# among them), the selection kernel benchmark (BenchmarkFilterBatch), the
# column-fill kernel benchmark, the SSB and TPC-H annotation benchmarks
# (BenchmarkAnnotateSSB, BenchmarkAnnotateTPCH and its
# q13/q16/q18/q20/q21/q22/all sub-benchmarks), the CSV encode benchmark and
# the original-database benchmark once — a CI guard that the harnesses keep
# working without paying for stable measurements.
bench-smoke:
	$(GO) test ./internal/engine ./internal/nonkey ./internal/relalg ./internal/storage ./internal/trace ./internal/workload -run '^$$' -bench . -benchtime 1x

# ci-selectors fails when a test name in one of the CI workflow's -run
# patterns selects no test in the package its step runs: go test -run passes
# silently on a pattern that matches nothing.
ci-selectors:
	bash .github/ci-selectors.sh
