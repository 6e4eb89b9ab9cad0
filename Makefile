GO ?= go

.PHONY: build test race bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine ./internal/keygen ./internal/nonkey ./internal/parallel ./internal/validate ./internal/genplan ./internal/obs ./internal/obshttp ./internal/storage ./internal/trace

# bench-smoke compiles and runs every engine benchmark, the column-fill
# kernel benchmark, the SSB annotation benchmark and the CSV encode benchmark
# once — a CI guard that the harnesses keep working without paying for stable
# measurements.
bench-smoke:
	$(GO) test ./internal/engine ./internal/nonkey ./internal/storage ./internal/trace -run '^$$' -bench . -benchtime 1x
