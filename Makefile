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
# fleet tests) — and internal/sctbench, whose tests fan surwsync-bound
# targets over parallel workers (about a minute under -race -short on a
# 2-vCPU machine).
race:
	$(GO) test -race -short . ./internal/workpool ./internal/sched ./internal/atlas ./internal/obs ./internal/profile ./internal/core ./internal/runner ./internal/experiments ./internal/crosscheck ./internal/campaign ./internal/remote ./internal/sctbench ./surwsync ./cmd/surw

# Benchmarks, recorded and not gated (ci.sh holds the gates). Every run
# parses its output into BENCH_obs.json, the latest snapshot, and appends a
# timestamped record to the BENCH_history.jsonl trajectory. `surw obs
# -bench-compare old.json new.json` compares schedules/s between any two
# snapshots.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/sched ./surwsync | tee BENCH_obs.txt
	$(GO) run ./cmd/surw obs -bench2json -in BENCH_obs.txt -out BENCH_obs.json \
		-bench-history BENCH_history.jsonl

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
