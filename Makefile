GO ?= go
FUZZTIME ?= 30s

# Version stamp: the release binary reports `git describe` through
# surw/internal/buildinfo (`surw version`, every subcommand's -version flag
# and the dashboard's /buildinfo endpoint); builds outside a git checkout
# fall back to "dev".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X surw/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build vet test race bench fuzz-smoke crosscheck ci

all: ci

# Everything compiles; the one stamped binary lands in ./bin/surw.
build:
	$(GO) build ./...
	$(GO) build $(LDFLAGS) -o bin/surw ./cmd/surw

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that spawn goroutines or whose
# tests drive ones that do (ci.sh runs this target) — cmd/surw among them: its tests run whole subcommands,
# listeners included, on goroutines of the test process (-short skips its
# fleet tests) — plus the one sctbench test that fans a surwsync-bound
# target over parallel workers and requires the 1-worker result.
race:
	$(GO) test -race -short . ./internal/workpool ./internal/sched ./internal/atlas ./internal/obs ./internal/profile ./internal/core ./internal/runner ./internal/experiments ./internal/crosscheck ./internal/campaign ./internal/remote ./surwsync ./cmd/surw
	$(GO) test -race -short -run '^TestWorkerPool' ./internal/sctbench

# Benchmarks. The throughput-critical pair (pooled scheduling and parallel
# sessions) is additionally parsed into BENCH_obs.json so regressions can be
# gated on and reports can embed machine-readable numbers; every run also
# appends a timestamped record to the BENCH_history.jsonl trajectory
# (BENCH_obs.json stays the latest snapshot). `surw obs -bench-compare
# old.json new.json` gates schedules/s between any two snapshots.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/sched ./surwsync | tee BENCH_obs.txt
	$(GO) run ./cmd/surw obs -bench2json -in BENCH_obs.txt -out BENCH_obs.json \
		-bench-history BENCH_history.jsonl \
		-gate 'BenchmarkPooledSchedule/pooled.allocs/op<=5.25' \
		-gate 'BenchmarkPooledSchedule/pooled_into.allocs/op<=4.2' \
		-gate 'BenchmarkBatchedReplay/traced.x_batched<=1.3' \
		-gate 'BenchmarkObservedSessions/workers_2.x_unobserved<=1.45'

# Short coverage-guided fuzz runs of the native fuzz targets: the
# end-to-end differential oracle over generated programs, the commutation
# metamorphic property of the class fingerprint, the channel implementation
# under randomized scheduling, and the two hand codecs (the run-store record
# and the lease's four messages) against encoding/json — those two with a
# short -fuzzminimizetime: their inputs are whole JSON documents, and the
# default minute spent shrinking each new one is the run. FUZZTIME=5m for a
# soak.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzGeneratedProgram -fuzztime=$(FUZZTIME) ./internal/crosscheck
	$(GO) test -run='^$$' -fuzz=FuzzClassFingerprint -fuzztime=$(FUZZTIME) ./internal/crosscheck
	$(GO) test -run='^$$' -fuzz=FuzzChannelOps -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzRecordCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzLeaseMessages -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/remote

# Framework self-verification soak (surw run -crosscheck).
crosscheck:
	$(GO) run ./cmd/surw run -crosscheck

ci: vet build test race
