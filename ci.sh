#!/bin/sh
# CI gate: vet, gofmt and cross-GOARCH build; the full test suite with
# per-package coverage floors (cmd/surw's tests hold every end-to-end claim
# about the command line: resume, fleets, dashboards, traces, the port);
# the concurrency-bearing packages again under the race detector (short
# mode keeps that pass under a minute); the benchmark gates; and a short
# coverage-guided fuzz smoke of the native fuzz targets.
set -eux

go vet ./...
test -z "$(gofmt -l .)" || { echo "FAIL: gofmt -l lists:"; gofmt -l .; exit 1; }
# sched.gkey's other two build variants: the arm64 stub against its
# declaration, and the runtime.Stack fallback on a GOARCH with no stub.
GOARCH=arm64 go vet ./internal/sched ./surwsync
GOARCH=riscv64 go build ./internal/sched ./surwsync
go build ./...
# One renderer: the Prometheus text format is written by internal/obs/prom.go
# and read back by internal/obs/promlint.go. A HELP or TYPE literal in any
# other non-test file is a second, hand-formatted renderer coming back.
if grep -rn --include='*.go' -e '# HELP' -e '# TYPE' . | grep -v -e '_test\.go:' -e '^\./internal/obs/prom\.go:' -e '^\./internal/obs/promlint\.go:'; then
    echo "FAIL: '# HELP'/'# TYPE' outside internal/obs/prom.go and internal/obs/promlint.go"; exit 1
fi
# One session driver: a session's seeds are derived in internal/runner's
# driver.go and nowhere else, and the library and `surw run` get their
# schedules from it. The seed map's two multipliers in a second non-test
# file, or a one-shot sched.Run / profile.Collect in either face, is a second
# session loop coming back.
seedmaps=$(grep -rl --include='*.go' -e '2_000_033' -e '1_000_003' . | grep -v -e '_test\.go$' -e '^\./benchmark/')
if [ "$seedmaps" != "./internal/runner/driver.go" ]; then
    echo "FAIL: the session seed map (2_000_033 / 1_000_003) belongs to internal/runner/driver.go alone, found in:"; echo "$seedmaps"; exit 1
fi
if grep -n -e 'sched\.Run(' -e 'profile\.Collect(' session.go cmd/surw/run.go internal/runner/parallel.go; then
    echo "FAIL: session.go, cmd/surw/run.go and internal/runner/parallel.go run schedules through runner.Driver only"; exit 1
fi
# One record codec, one place for encoding/json in the fleet: a session
# record is written by campaign.AppendRecord and read by campaign.ParseRecord
# (internal/campaign/wire.go), the lease's four messages by
# internal/remote/wire.go, and the requests off the per-session path by
# internal/remote/cold.go. A reflective encoder or a streaming decoder in
# the store, the worker loop or the coordinator's handlers is a record going
# through encoding/json again on its way to disk.
if grep -n -e 'json\.Marshal' -e 'json\.NewDecoder' -e 'json\.NewEncoder' internal/campaign/store.go internal/remote/worker.go internal/remote/coordinator.go; then
    echo "FAIL: json.Marshal/NewDecoder/NewEncoder in the store, the worker loop or the coordinator: records and lease messages go through the wire.go codecs, cold requests through internal/remote/cold.go"; exit 1
fi
# One grid loop: an experiment is a list of cells and internal/experiments'
# grid.go is the one place that runs one (runner.RunCells — every session of
# every cell on one pool). A worker pool of the package's own outside
# Figure 2's sampler (which has no sessions), a RunTarget per cell, or a
# second ThroughputFooter is a hand-rolled cell loop coming back.
loops=$(grep -l -e 'workpool\.Map' -e 'runner\.RunCells' -e 'runner\.RunTarget' internal/experiments/*.go | grep -v '_test\.go$' | tr '\n' ' ')
if [ "$loops" != "internal/experiments/fig2.go internal/experiments/grid.go " ]; then
    echo "FAIL: internal/experiments runs cells in grid.go (runner.RunCells) and samples in fig2.go (workpool.Map) only, found loops in: $loops"; exit 1
fi
if grep -q 'runner\.RunTarget' internal/experiments/grid.go || [ "$(grep -rh --include='*.go' 'func .*) ThroughputFooter(' internal cmd | wc -l)" -ne 1 ]; then
    echo "FAIL: one cell loop (runner.RunCells in grid.go) and one ThroughputFooter (grid.go)"; exit 1
fi
# (no pipe: a pipeline would mask go test's exit status under plain sh)
go test -cover ./... > /tmp/surw-cover.txt 2>&1 || { cat /tmp/surw-cover.txt; exit 1; }
cat /tmp/surw-cover.txt
# The repository benchmark is a module of its own (BENCHMARK.json runs it
# with go run -C benchmark), so ./... above does not reach its harness tests.
(cd benchmark && go vet ./... && go test -skip '^TestFleetWrappersDoNotPerturb$' ./...)
# TestFleetWrappersDoNotPerturb runs on its own and may fail one assertion
# only: that there is a /v1/lease round trip per lease ("N lease round
# trips, N handled" with N below the plan's length). Since a submission's
# reply carries the next lease, a worker polls only when it starts and after
# a retry hint; teaching the harness the combined reply is ROADMAP item
# 1(d), the benchmark PR's. Every other check of the test still fails CI:
# the bare, timed and spanned fleets' aggregates.json byte-identical to a
# local run's, a /v1/result round trip and handler per lease, as many lease
# handlers as lease round trips, and every handler and append span under
# its parent.
if ! (cd benchmark && go test -count=1 -run '^TestFleetWrappersDoNotPerturb$' -v .) > /tmp/surw-bench-wrappers.txt 2>&1; then
    leases=$(sed -nE 's/^ +wrappers_test\.go:[0-9]+: ([0-9]+) lease round trips, ([0-9]+) handled$/\1 \2/p' /tmp/surw-bench-wrappers.txt)
    if [ "$(grep -cE '^ +wrappers_test\.go:[0-9]+: ' /tmp/surw-bench-wrappers.txt)" != 1 ] || [ -z "$leases" ] ||
        [ "${leases% *}" != "${leases#* }" ] || ! grep -q -- '^--- FAIL: TestFleetWrappersDoNotPerturb ' /tmp/surw-bench-wrappers.txt; then
        cat /tmp/surw-bench-wrappers.txt
        echo "FAIL: TestFleetWrappersDoNotPerturb failed beyond its count of /v1/lease round trips"; exit 1
    fi
fi

# Coverage floors: current-minus-1% for the scheduler substrate, the
# algorithm implementations, the command line, the fleet, the sync shim and
# the run store. A drop below the floor means tests were lost
# or new code landed untested; raise the floor when coverage climbs.
awk '
  /^ok/ && /coverage:/ {
    pkg = $2
    for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); cov = $(i+1) + 0 }
    printf "%-40s %5.1f%%\n", pkg, cov
    if (pkg == "surw/internal/sched" && cov < 91.9) { printf "FAIL: %s coverage %.1f%% below floor 91.9%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/core"  && cov < 95.2) { printf "FAIL: %s coverage %.1f%% below floor 95.2%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/cmd/surw"       && cov < 69.7) { printf "FAIL: %s coverage %.1f%% below floor 69.7%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/remote" && cov < 91.6) { printf "FAIL: %s coverage %.1f%% below floor 91.6%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/surwsync"       && cov < 88.8) { printf "FAIL: %s coverage %.1f%% below floor 88.8%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/campaign" && cov < 92.8) { printf "FAIL: %s coverage %.1f%% below floor 92.8%%\n", pkg, cov; bad = 1 }
  }
  END { exit bad }
' /tmp/surw-cover.txt

make race

# best_of_three FILE EXACT NOISY go-test-args...: up to three samples of a
# benchmark into FILE. The EXACT gates (deterministic counts; may be empty)
# must hold on every sample taken, the NOISY ones (wall-clock, or ratios a
# noisy neighbour can skew) on one of the three.
best_of_three() {
    out=$1 exact=$2 noisy=$3
    shift 3
    for attempt in 1 2 3; do
        go test "$@" > "$out" 2>&1 || { cat "$out"; exit 1; }
        test -z "$exact" || go run ./cmd/surw obs -in "$out" $exact
        if go run ./cmd/surw obs -in "$out" $noisy; then
            return 0
        fi
    done
    return 1
}

# Observability overhead gate: with tracing disabled the pooled scheduler
# must stay at its allocation floor — the Tracer hook is a nil-check, not a
# cost. The floor is 5 (the Result and the Figure 1 program's own four; 6
# while every object handle was a heap object), and 4 into a Result the
# caller keeps (pooled_into: Pool.RunInto, the form the runner's sessions
# use); the gates are those + 5 %. (No pipe, same reason as above.)
go test -bench='^BenchmarkPooledSchedule$' -benchmem -benchtime=2000x -run='^$' . > /tmp/surw-bench.txt 2>&1 || { cat /tmp/surw-bench.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench.txt -gate 'BenchmarkPooledSchedule/pooled.allocs/op<=5.25' -gate 'BenchmarkPooledSchedule/pooled_into.allocs/op<=4.2'
# The library stays on that path: surw.Explore is a face over the runner's
# session driver, so a schedule costs it 5.36 objects — the pooled
# schedule's four, the Result the caller keeps, and a 500-schedule session's
# set-up spread over it (72 while session.go ran each schedule through the
# one-shot sched.Run).
go test -bench='^BenchmarkLibrarySession$' -benchtime=20x -run='^$' . > /tmp/surw-bench-lib.txt 2>&1 || { cat /tmp/surw-bench-lib.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-lib.txt -gate 'BenchmarkLibrarySession.allocs/schedule<=10'

# Shim cost gates: a surwsync operation costs about the Thread API call it
# forwards to (measured 0.97-1.2x, a same-process ratio, so
# machine-independent; 1.6-1.9x while the goroutine lookup and the object
# cache each took a mutex per operation), and naming the current goroutine
# never allocates. The ratio's two arms run one after the other, so a noisy
# neighbour can skew one sample: best of three.
best_of_three /tmp/surw-bench-shim.txt \
    '-gate BenchmarkCurrentThread/bound.allocs/op<=0' \
    '-gate BenchmarkShimMutex/shim.x_thread_api<=1.6' \
    -bench='^(BenchmarkCurrentThread|BenchmarkShimMutex)$' -benchmem -run='^$' ./internal/sched ./surwsync
# A pooled schedule of real Go code (the ported worker pool, WP/pool_2w2j)
# allocates what the program itself does plus its Result: 11.0 objects,
# exact at this -benchtime (15.96 while NewChan made a native channel under
# a session, the result channel's buffer grew again every schedule and a
# deadlock's message was built fresh; 66.4 while handles, Ref values,
# composite names and deadlock reports came from the heap — the benchmark
# calls Pool.Run, so the Result itself stays). The gate is that + 5 %: an
# allocation added per object or per channel operation is caught where it
# is added.
go test -bench='^BenchmarkShimSchedule$' -benchtime=2000x -run='^$' ./surwsync > /tmp/surw-bench-shimsched.txt 2>&1 || { cat /tmp/surw-bench-shimsched.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-shimsched.txt -gate 'BenchmarkShimSchedule.allocs/schedule<=11.55'

# Observer cost gates: watching the engine must not mean running a slower
# one. x_batched is a pooled schedule with an obs.MetricsTracer over the
# same schedule without (measured 1.10-1.12, the pick rank read off the
# enabled mask; 1.13 while Decide searched the slice, 1.91 when a tracer
# selected the slow loop), x_unobserved a two-worker batch with Metrics and
# an atlas over the same batch without (measured 1.16-1.19 with plain
# per-worker counters and a streaming chi-square; 1.30-1.33 with atomic
# staging and a count copy per drift test, 2.7-3.1 when every decision
# wrote the cache lines both workers share). Both are same-process ratios
# measured in alternation, so they survive a slow machine; a noisy
# neighbour can still skew one sample, hence the best of three.
best_of_three /tmp/surw-bench-obs.txt '' \
    '-gate BenchmarkBatchedReplay/traced.x_batched<=1.3 -gate BenchmarkObservedSessions/workers_2.x_unobserved<=1.45' \
    -bench='^(BenchmarkBatchedReplay|BenchmarkObservedSessions)$' -benchmem -run='^$' .

# Census cost gates: the paper books a session's profiling run as one extra
# schedule (§4.1), and on a warm worker it costs about that. x_schedule is
# a warm collector's census on a warm pool over a pooled random-walk
# schedule of the same program and seed (the same interleaving), alternated
# in one process: measured 1.2 on both cells (3.2-3.3 while the census hid
# the walk's IndexChooser behind a plain Next and counted every event
# through two maps rebuilt per session), gated at 2, best of three like the
# observer ratios above. allocs/census is what the census allocates — the
# program's own four objects and nothing of the framework's (80 and 108
# before) — exact, so gated at that + 5 % on each attempt.
best_of_three /tmp/surw-bench-census.txt \
    '-gate BenchmarkCensus/reorder_10.allocs/census<=4.2 -gate BenchmarkCensus/twostage_20.allocs/census<=4.2' \
    '-gate BenchmarkCensus/reorder_10.x_schedule<=2 -gate BenchmarkCensus/twostage_20.x_schedule<=2' \
    -bench='^BenchmarkCensus$' -run='^$' .

# Allocation gate for the parallel session engine. The allocs/schedule
# floor is deterministic (4.52: the twostage program's own closures and
# slices, and a session's set-up spread over its 100 schedules; 5.52 while
# every schedule returned a fresh Result, 9.52 before object handles moved
# into the execution's arenas; the gate is that + 5 %: small noise, not a
# regression).
go test -bench='^BenchmarkParallelSessions$/^workers_1$' -benchmem -benchtime=20x -run='^$' . > /tmp/surw-bench-par.txt 2>&1 || { cat /tmp/surw-bench-par.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-par.txt -gate 'BenchmarkParallelSessions/workers_1.allocs/schedule<=4.75'
# Throughput gate, normalised to the machine: the process CPU time of a
# schedule of that batch over the CPU time of a calibration loop with the
# engine's shape (splitmix64 draws, a small map, an iter.Pull switch), at
# GOMAXPROCS 1, the two arms alternated nine times in one process and the
# median round taken. Measured 241.5-259.4 on a 2-vCPU Xeon box, idle and
# under two busy loops alike (63 samples; three idle outliers at
# 270.4-290.5), and 272.6-293.8 (95 samples) with a spin that makes a
# schedule ~14 % dearer in the engine's pump (EXPERIMENTS.md, "A throughput
# gate a busy box cannot fail"). Best of three against outliers. It
# replaces an absolute schedules/s floor that the unmodified code failed on
# a loaded box.
best_of_three /tmp/surw-bench-cpu.txt '' \
    '-gate BenchmarkSessionCPU.x_calibration<=265' \
    -bench='^BenchmarkSessionCPU$' -benchtime=9x -run='^$' .

# Fleet cost gates, all same-process comparisons (internal/remote/bench_test.go).
# over_local and over_local_B are what a session of a loopback drain
# allocates beyond a local run's of the same plan of short hunts, in objects
# and in bytes: differences, not ratios, so an engine-side saving — one both
# arms make — does not move the gates, and measured + 5 %, so an allocation
# added per lease is caught where it is added. Measured 102.5-102.6 objects
# and 8.4-8.5 KB (304 a session over 201.5) since the store keeps the
# session it is handed, the lease loop reuses its span, hooks and request,
# and the coordinator its leases (109.0-109.2 objects and 10.0-10.2 KB
# before; 200.4-200.9 objects and 17.5-17.8 KB with a /v1/lease round trip
# per lease besides; 264-267 objects and 23.7 KB while a record went through
# encoding/json five times between the worker and runs.jsonl). What is left
# is net/http's own ≈ 84 objects for the one round trip and ≈ 18 of ours
# (DESIGN §9).
# x_pending_100 is the time of one FIFO lease grant with 20 000 batches
# pending over one with 100 (measured 1.0-1.2; 10 when the pop shifted the
# queue down under the coordinator's mutex).
go test -bench='^BenchmarkFleetSession$' -benchtime=5x -run='^$' ./internal/remote > /tmp/surw-bench-fleet.txt 2>&1 || { cat /tmp/surw-bench-fleet.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-fleet.txt -gate 'BenchmarkFleetSession/fleet.over_local<=108' -gate 'BenchmarkFleetSession/fleet.over_local_B<=8900'
# The local half of that, held without the fleet: one Store.Store of a short
# hunt's record into a store on tmpfs allocates 0 objects and 75-79 B at
# this -benchtime (the cell table's growth, spread over the appends; the
# store keeps the session it is handed: 6 objects and 1037 B while it kept
# a copy and handed the caller another, 10 and 1512 B while it marshalled
# the record by reflection and decoded its own output) — exact, so
# measured + 5 %.
go test -bench='^BenchmarkStoreAppend$' -benchtime=2000x -run='^$' ./internal/campaign > /tmp/surw-bench-store.txt 2>&1 || { cat /tmp/surw-bench-store.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-store.txt -gate 'BenchmarkStoreAppend.allocs/op<=0' -gate 'BenchmarkStoreAppend.B/op<=83'
# The coordinator's plan tables, built once a campaign: 91 B a planned
# session on the fleet_loopback plan at one session a lease (445 while the
# plan was a set of session keys and every batch a copy of its keys) —
# exact, so measured + 5 %.
go test -bench='^BenchmarkNewCoordinator$' -benchtime=5x -run='^$' ./internal/remote > /tmp/surw-bench-coord.txt 2>&1 || { cat /tmp/surw-bench-coord.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-coord.txt -gate 'BenchmarkNewCoordinator.B/session<=95'
go test -bench='^BenchmarkLeaseGrant$' -run='^$' ./internal/remote > /tmp/surw-bench-grant.txt 2>&1 || { cat /tmp/surw-bench-grant.txt; exit 1; }
go run ./cmd/surw obs -in /tmp/surw-bench-grant.txt -gate 'BenchmarkLeaseGrant/pending_20000.x_pending_100<=2'

# The real-Go-code demo (DESIGN §14): SURW finds the ported worker pool's
# seeded lost-wakeup deadlock and replays it. Every other end-to-end claim
# about the command line lives in cmd/surw's tests, which `go test` ran.
go run ./examples/workerpool > /tmp/surw-demo.txt
grep -q 'bug "deadlock" found at schedule' /tmp/surw-demo.txt
grep -q 'replayed: deadlock' /tmp/surw-demo.txt

# Fuzz smoke: a short coverage-guided run of each native fuzz target (the
# full checked-in seed corpora already ran as part of `go test` above).
FUZZTIME=10s make fuzz-smoke
