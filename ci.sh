#!/bin/sh
# CI gate: vet, gofmt and cross-GOARCH build; the full test suite with
# per-package coverage floors (cmd/surw's tests hold every end-to-end claim
# about the command line: resume, fleets, dashboards, traces, the port; the
# root package's TestDesignGuards holds the design rules: one seed map, one
# driver, one codec, one registry and the rest); the benchmark module's
# tests; the identity golden and a fleet drain on 386; no fused
# multiply-add on arm64; results/ regenerated byte for byte; the
# concurrency-bearing packages again under the race detector (short mode
# keeps that pass under a minute); the benchmark gates; the real-Go-code
# demo; and a short coverage-guided fuzz smoke of the native fuzz targets.
# `make ci` is the first part of this: vet, build, go test and the race
# pass.
set -eux

# Every scratch file of a run lives under one directory, removed when the
# script exits, whether every stage passed or one failed.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go vet ./...
test -z "$(gofmt -l .)" || { echo "FAIL: gofmt -l lists:"; gofmt -l .; exit 1; }
# sched.gkey's other two build variants: the arm64 stub against its
# declaration, and the runtime.Stack fallback on a GOARCH with no stub.
GOARCH=arm64 go vet ./internal/sched ./surwsync
GOARCH=riscv64 go build ./internal/sched ./surwsync
go build ./...
# (no pipe: a pipeline would mask go test's exit status under plain sh)
go test -cover ./... > "$tmp/cover.txt" 2>&1 || { cat "$tmp/cover.txt"; exit 1; }
cat "$tmp/cover.txt"
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
if ! (cd benchmark && go test -count=1 -run '^TestFleetWrappersDoNotPerturb$' -v .) > "$tmp/bench-wrappers.txt" 2>&1; then
    leases=$(sed -nE 's/^ +wrappers_test\.go:[0-9]+: ([0-9]+) lease round trips, ([0-9]+) handled$/\1 \2/p' "$tmp/bench-wrappers.txt")
    if [ "$(grep -cE '^ +wrappers_test\.go:[0-9]+: ' "$tmp/bench-wrappers.txt")" != 1 ] || [ -z "$leases" ] ||
        [ "${leases% *}" != "${leases#* }" ] || ! grep -q -- '^--- FAIL: TestFleetWrappersDoNotPerturb ' "$tmp/bench-wrappers.txt"; then
        cat "$tmp/bench-wrappers.txt"
        echo "FAIL: TestFleetWrappersDoNotPerturb failed beyond its count of /v1/lease round trips"; exit 1
    fi
fi

# Coverage floors: current-minus-1% for the scheduler substrate, the
# algorithm implementations, the command line, the fleet, the sync shim and
# the run store. A drop below the floor means tests were lost
# or new code landed untested; raise the floor when coverage climbs (to the
# least of three `go test -cover ./...` runs, minus 1; never lower one).
awk '
  /^ok/ && /coverage:/ {
    pkg = $2
    for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); cov = $(i+1) + 0 }
    printf "%-40s %5.1f%%\n", pkg, cov
    if (pkg == "surw/internal/sched" && cov < 93.8) { printf "FAIL: %s coverage %.1f%% below floor 93.8%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/core"  && cov < 95.2) { printf "FAIL: %s coverage %.1f%% below floor 95.2%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/cmd/surw"       && cov < 75.2) { printf "FAIL: %s coverage %.1f%% below floor 75.2%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/remote" && cov < 93.1) { printf "FAIL: %s coverage %.1f%% below floor 93.1%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/surwsync"       && cov < 88.8) { printf "FAIL: %s coverage %.1f%% below floor 88.8%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/campaign" && cov < 94.5) { printf "FAIL: %s coverage %.1f%% below floor 94.5%%\n", pkg, cov; bad = 1 }
  }
  END { exit bad }
' "$tmp/cover.txt"

# Same bytes on a 32-bit build: ThreadID is an int, 32 bits on 386, and the
# batched engine's thread sets do bit arithmetic on it. The identity golden
# (every target under every algorithm, batched at 1 and 4 workers and on
# the slow loop, CS/reorder_100 and CS/twostage_100 included) must read the
# same rows there (about 10 s).
GOARCH=386 go test -count=1 -run '^TestIdentityGolden$' ./internal/runner

# A 386 worker in a fleet (ROADMAP 20(c)): an sct plan drained over
# loopback by one 386 and one amd64 `surw worker` must write the
# aggregates.json a local run of the same flags writes, byte for byte. The
# 386 worker starts first and the amd64 one joins at its first lease, so
# both run sessions; one lease is one session (-lease-batch 1).
fleet=$tmp/fleet
mkdir "$fleet"
GOARCH=386 go build -o "$fleet/surw386" ./cmd/surw
go build -o "$fleet/surw" ./cmd/surw
cells='-sct-targets CS/twostage_20,CS/reorder_20 -sct-algs RW,POS -sessions 4 -limit 2000'
"$fleet/surw" bench -q $cells -campaign "$fleet/local" sct > /dev/null 2>&1
"$fleet/surw" bench -q $cells -lease-batch 1 -coordinate 127.0.0.1:0 -campaign "$fleet/camp" sct > /dev/null 2> "$fleet/coord.err" &
coord=$!
addr=
for i in $(seq 300); do
    addr=$(sed -nE 's|^surw bench: coordinator serving on (http://[^/]*)/$|\1|p' "$fleet/coord.err")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { cat "$fleet/coord.err"; echo "FAIL: the fleet's coordinator announced no address"; exit 1; }
"$fleet/surw386" worker -name w386 -workers 1 -coordinator "$addr" 2> "$fleet/w386.err" &
w386=$!
for i in $(seq 300); do
    grep -q ': lease ' "$fleet/w386.err" && break
    sleep 0.1
done
"$fleet/surw" worker -name w64 -workers 1 -coordinator "$addr" 2> "$fleet/w64.err" &
w64=$!
wait $coord && wait $w386 && wait $w64 || { cat "$fleet"/*.err; echo "FAIL: the mixed fleet's drain failed"; exit 1; }
grep -q ' accepted, ' "$fleet/w386.err" || { cat "$fleet"/*.err; echo "FAIL: the 386 worker ran no session of the fleet's plan"; exit 1; }
cmp "$fleet/local/aggregates.json" "$fleet/camp/aggregates.json" || { echo "FAIL: a fleet with a 386 worker wrote other aggregates.json bytes than a local run"; exit 1; }
rm -rf "$fleet"

# Same bytes on arm64: the Go spec lets a compiler fuse x*y + z into one
# multiply-add that rounds once where amd64 rounds twice, and the arm64
# backend does. An explicit float64(...) conversion rounds, so nothing
# fuses across it, and every product of this module that meets an add or a
# subtract carries one. A fused instruction in this module's symbols of an
# arm64 build of cmd/surw (inlined code included) is a product without it.
arm64bin=$tmp/surw-arm64
GOARCH=arm64 go build -o "$arm64bin" ./cmd/surw
fused=$(go tool objdump "$arm64bin" | awk '/^TEXT /{sym=$2} /(FMADD|FMSUB|FNMADD|FNMSUB)[DS]? / && sym ~ /^(surw\/|main\.)/{print sym, $1}')
rm -f "$arm64bin"
if [ -n "$fused" ]; then
    echo "FAIL: fused multiply-add in this module's arm64 code; put an explicit float64(...) round the product at:"; echo "$fused"; exit 1
fi

# The published numbers are the build's: results/ holds what `surw bench
# -out results all` writes at the default scale and seed 1, byte for byte
# (about 40 s at two workers; the tables are the same at any -workers). A
# change that moves a published number commits the new file, and the diff
# shows it; EXPERIMENTS.md's Measured tables quote these files, and
# docs_test.go holds them to it.
regen=$tmp/results
mkdir "$regen"
go run ./cmd/surw bench -q -out "$regen" all > /dev/null
for f in "$regen"/* results/*.txt results/*.csv; do
    name=$(basename "$f")
    cmp "results/$name" "$regen/$name" || { echo "FAIL: results/$name is not what 'surw bench -out results all' writes now: regenerate results/ and commit it"; exit 1; }
done
rm -rf "$regen"

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
go test -bench='^BenchmarkPooledSchedule$' -benchmem -benchtime=2000x -run='^$' . > "$tmp/bench.txt" 2>&1 || { cat "$tmp/bench.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench.txt" -gate 'BenchmarkPooledSchedule/pooled.allocs/op<=5.25' -gate 'BenchmarkPooledSchedule/pooled_into.allocs/op<=4.2'
# The library stays on that path: surw.Explore is a face over the runner's
# session driver, so a schedule costs it 5.16-5.17 objects — the pooled
# schedule's four, the Result the caller keeps, and a 500-schedule
# session's set-up spread over it on a recycled worker: its coroutines and
# interned names, its Session and tallies (5.36 while every session built
# its worker cold, gated then at 10; 72 while session.go ran each schedule
# through the one-shot sched.Run). The gate is the measured 5.17 + 5 %.
# Most of those objects are the target program's: a rate-1 memory profile
# (-memprofilerate 1, -benchtime 20x) puts 77 % of them in Bitshift's body
# and bitString (4.0 a schedule), 19 % in the Result each schedule hands the
# caller, and 3 % in set-up (coroutine starts, Explore's session).
go test -bench='^BenchmarkLibrarySession$' -benchtime=20x -run='^$' . > "$tmp/bench-lib.txt" 2>&1 || { cat "$tmp/bench-lib.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-lib.txt" -gate 'BenchmarkLibrarySession.allocs/schedule<=5.43'

# Shim cost gates: a surwsync operation costs about the Thread API call it
# forwards to (measured 0.97-1.2x, a same-process ratio, so
# machine-independent; 1.6-1.9x while the goroutine lookup and the object
# cache each took a mutex per operation), and naming the current goroutine
# never allocates. The ratio's two arms run one after the other, so a noisy
# neighbour can skew one sample: best of three.
best_of_three "$tmp/bench-shim.txt" \
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
# is added. Its bytes are 500.0 a schedule since every primitive's
# sched.ShimCache is four words (627.9 while it held a mutex, a spill
# slice and an interface slot inline, 64 B a primitive): gated at that
# + 5 %, so a word added to a shimmed primitive is caught too.
go test -bench='^BenchmarkShimSchedule$' -benchtime=2000x -run='^$' ./surwsync > "$tmp/bench-shimsched.txt" 2>&1 || { cat "$tmp/bench-shimsched.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-shimsched.txt" -gate 'BenchmarkShimSchedule.allocs/schedule<=11.55' -gate 'BenchmarkShimSchedule.B/schedule<=525'

# Observer cost gates: watching the engine must not mean running a slower
# one. x_batched is a pooled schedule with an obs.MetricsTracer over the
# same schedule without (measured 1.10-1.12, the pick rank read off the
# enabled mask; 1.13 while Decide searched the slice, 1.91 when a tracer
# selected the slow loop), x_unobserved a two-worker batch with Metrics and
# an atlas over the same batch without (measured 1.12-1.17 with both
# attached as one sched.Tracer, the worker's pair of them, alternated in ten
# pairs on a 2-vCPU box against 1.09-1.14 while the atlas had an engine hook
# of its own; 1.10-1.15 with the atlas a depth profile only, against
# 1.14-1.19 for the build that also kept density grids; 1.15-1.18 with
# plain per-worker counters and the grids; 1.16-1.19 while a uniformity
# chi-square was also fed every schedule, 1.30-1.33 with atomic staging
# and a count copy per chi-square test, 2.7-3.1 when every decision wrote
# the cache lines both workers share). atlas_only is the same batch with an
# atlas and no Metrics, what `surw bench -atlas` attaches alone: measured
# 1.041-1.087 before event traces moved onto sched.Tracer and 1.031-1.085
# after (ten alternated pairs, 2-vCPU box), gated at that maximum + 10 %.
# All three are same-process ratios measured in alternation, so they
# survive a slow machine; a noisy neighbour can still skew one sample,
# hence the best of three.
best_of_three "$tmp/bench-obs.txt" '' \
    '-gate BenchmarkBatchedReplay/traced.x_batched<=1.3 -gate BenchmarkObservedSessions/workers_2.x_unobserved<=1.45 -gate BenchmarkObservedSessions/atlas_only.x_unobserved<=1.2' \
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
best_of_three "$tmp/bench-census.txt" \
    '-gate BenchmarkCensus/reorder_10.allocs/census<=4.2 -gate BenchmarkCensus/twostage_20.allocs/census<=4.2' \
    '-gate BenchmarkCensus/reorder_10.x_schedule<=2 -gate BenchmarkCensus/twostage_20.x_schedule<=2' \
    -bench='^BenchmarkCensus$' -run='^$' .

# Allocation gate for the parallel session engine. The allocs/schedule
# floor is near-deterministic (4.385-4.393: the twostage program's own
# closures and slices, and a session's set-up on a recycled worker spread
# over its 100 schedules; 4.52 while every RunTarget call built its
# workers cold, gated then at 4.75; 5.52 while every schedule returned a
# fresh Result, 9.52 before object handles moved into the execution's
# arenas; the gate is 4.39 + 5 %: small noise, not a regression). Most
# of those objects are the target program's: a rate-1 memory profile
# (-memprofilerate 1, -benchtime 20x) puts 93 % of them in Twostage's
# closures and spawnN's handle slice (4.0 a schedule), 5 % in the coroutines
# the engine starts for the threads the program spawns (iter.Pull,
# Thread.start) and 1 % in the runner's session set-up.
go test -bench='^BenchmarkParallelSessions$/^workers_1$' -benchmem -benchtime=20x -run='^$' . > "$tmp/bench-par.txt" 2>&1 || { cat "$tmp/bench-par.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-par.txt" -gate 'BenchmarkParallelSessions/workers_1.allocs/schedule<=4.61'
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
best_of_three "$tmp/bench-cpu.txt" '' \
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
go test -bench='^BenchmarkFleetSession$' -benchtime=5x -run='^$' ./internal/remote > "$tmp/bench-fleet.txt" 2>&1 || { cat "$tmp/bench-fleet.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-fleet.txt" -gate 'BenchmarkFleetSession/fleet.over_local<=108' -gate 'BenchmarkFleetSession/fleet.over_local_B<=8900'
# The local half of that, held without the fleet: one Store.Store of a short
# hunt's record into a store on tmpfs allocates 0 objects and 75-79 B at
# this -benchtime (the cell table's growth, spread over the appends; the
# store keeps the session it is handed: 6 objects and 1037 B while it kept
# a copy and handed the caller another, 10 and 1512 B while it marshalled
# the record by reflection and decoded its own output) — exact, so
# measured + 5 %.
go test -bench='^BenchmarkStoreAppend$' -benchtime=2000x -run='^$' ./internal/campaign > "$tmp/bench-store.txt" 2>&1 || { cat "$tmp/bench-store.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-store.txt" -gate 'BenchmarkStoreAppend.allocs/op<=0' -gate 'BenchmarkStoreAppend.B/op<=83'
# The coordinator's plan tables, built once a campaign: 91 B a planned
# session on the fleet_loopback plan at one session a lease (445 while the
# plan was a set of session keys and every batch a copy of its keys) —
# exact, so measured + 5 %.
go test -bench='^BenchmarkNewCoordinator$' -benchtime=5x -run='^$' ./internal/remote > "$tmp/bench-coord.txt" 2>&1 || { cat "$tmp/bench-coord.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-coord.txt" -gate 'BenchmarkNewCoordinator.B/session<=95'
go test -bench='^BenchmarkLeaseGrant$' -run='^$' ./internal/remote > "$tmp/bench-grant.txt" 2>&1 || { cat "$tmp/bench-grant.txt"; exit 1; }
go run ./cmd/surw obs -in "$tmp/bench-grant.txt" -gate 'BenchmarkLeaseGrant/pending_20000.x_pending_100<=2'

# The real-Go-code demo (DESIGN §14): SURW finds the ported worker pool's
# seeded lost-wakeup deadlock, replays it and prints the replay's event
# trace (surw.Replay's EventLog). Every other end-to-end claim about the
# command line lives in cmd/surw's tests, which `go test` ran.
go run ./examples/workerpool > "$tmp/demo.txt"
grep -q 'bug "deadlock" found at schedule' "$tmp/demo.txt"
grep -q 'replayed: deadlock' "$tmp/demo.txt"
grep -q 'failing interleaving (' "$tmp/demo.txt"

# Fuzz smoke: a short coverage-guided run of each native fuzz target (the
# full checked-in seed corpora already ran as part of `go test` above).
FUZZTIME=10s make fuzz-smoke
