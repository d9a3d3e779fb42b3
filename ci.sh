#!/bin/sh
# CI gate: build + vet everything, run the full test suite with per-package
# coverage, enforce coverage floors on the core packages, re-run the
# concurrency-bearing packages under the race detector (short mode keeps the
# race pass under a minute), and finish with a short coverage-guided fuzz
# smoke of the two native fuzz targets.
set -eux

go vet ./...
test -z "$(gofmt -l .)" || { echo "FAIL: gofmt -l lists:"; gofmt -l .; exit 1; }
# sched.gkey's other two build variants: the arm64 stub against its
# declaration, and the runtime.Stack fallback on a GOARCH with no stub.
GOARCH=arm64 go vet ./internal/sched ./surwsync
GOARCH=riscv64 go build ./internal/sched ./surwsync
go build ./...
# (no pipe: a pipeline would mask go test's exit status under plain sh)
go test -cover ./... > /tmp/surw-cover.txt 2>&1 || { cat /tmp/surw-cover.txt; exit 1; }
cat /tmp/surw-cover.txt
# The repository benchmark is a module of its own (BENCHMARK.json runs it
# with go run -C benchmark), so ./... above does not reach its harness tests.
(cd benchmark && go vet ./... && go test ./...)

# Coverage floors: current-minus-1% for the scheduler substrate and the
# algorithm implementations. A drop below the floor means tests were lost
# or new code landed untested; raise the floor when coverage climbs.
awk '
  /^ok/ && /coverage:/ {
    pkg = $2
    for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); cov = $(i+1) + 0 }
    printf "%-40s %5.1f%%\n", pkg, cov
    if (pkg == "surw/internal/sched" && cov < 91.9) { printf "FAIL: %s coverage %.1f%% below floor 91.9%%\n", pkg, cov; bad = 1 }
    if (pkg == "surw/internal/core"  && cov < 95.2) { printf "FAIL: %s coverage %.1f%% below floor 95.2%%\n", pkg, cov; bad = 1 }
  }
  END { exit bad }
' /tmp/surw-cover.txt

make race

# Observability overhead gate: with tracing disabled the pooled scheduler
# must stay at its allocation floor — the Tracer hook is a nil-check, not a
# cost. (No pipe, same reason as above.)
go test -bench='^BenchmarkPooledSchedule$' -benchmem -benchtime=2000x -run='^$' . > /tmp/surw-bench.txt 2>&1 || { cat /tmp/surw-bench.txt; exit 1; }
go run ./cmd/surwobs -in /tmp/surw-bench.txt -gate 'BenchmarkPooledSchedule/pooled.allocs/op<=11'

# Shim cost gates: a surwsync operation stays within a small factor of the
# Thread API call it forwards to (measured 1.8x, a same-process ratio, so
# machine-independent), and naming the current goroutine never allocates.
go test -bench='^(BenchmarkCurrentThread|BenchmarkShimMutex)$' -benchmem -run='^$' ./internal/sched ./surwsync > /tmp/surw-bench-shim.txt 2>&1 || { cat /tmp/surw-bench-shim.txt; exit 1; }
go run ./cmd/surwobs -in /tmp/surw-bench-shim.txt -gate 'BenchmarkShimMutex/shim.x_thread_api<=5' -gate 'BenchmarkCurrentThread/bound.allocs/op<=0'

# Observer cost gates: watching the engine must not mean running a slower
# one. x_batched is a pooled schedule with an obs.MetricsTracer over the
# same schedule without (measured 1.13; 1.91 when a tracer selected the
# slow loop), x_unobserved a two-worker batch with Metrics and an atlas
# over the same batch without (measured 1.3; 2.7-3.1 when every decision
# wrote the cache lines both workers share). Both are same-process ratios
# measured in alternation, so they survive a slow machine; a noisy
# neighbour can still skew one sample, hence the best of three.
obs_gate_ok=0
for attempt in 1 2 3; do
    go test -bench='^(BenchmarkBatchedReplay|BenchmarkObservedSessions)$' -benchmem -run='^$' . > /tmp/surw-bench-obs.txt 2>&1 || { cat /tmp/surw-bench-obs.txt; exit 1; }
    if go run ./cmd/surwobs -in /tmp/surw-bench-obs.txt -gate 'BenchmarkBatchedReplay/traced.x_batched<=1.3' -gate 'BenchmarkObservedSessions/workers_2.x_unobserved<=1.6'; then
        obs_gate_ok=1
        break
    fi
done
test "$obs_gate_ok" -eq 1

# Allocation and throughput gates for the parallel session engine. The
# allocs/schedule floor is deterministic (~9.5 after prefix checkpointing
# and batched run-to-next-decision; the gate allows small noise, not a
# regression), so one sample gates it. The schedules/s gate locks in the
# >=5x speedup over the pre-checkpointing BENCH_obs.json baseline (5519
# schedules/s on the reference machine -> gate at 27595). It is
# wall-clock: the reference machine measures ~31-36k when quiet but dips
# ~30% under neighbor load, so the gate takes the best of three samples
# (a genuine fast-path regression lands back near the 5.5k baseline and
# fails all three; -benchtime=20x smooths per-sample jitter). The
# baseline JSON itself must parse — it is the machine-readable record
# reports embed.
go test -bench='^BenchmarkParallelSessions$/^workers_1$' -benchmem -benchtime=20x -run='^$' . > /tmp/surw-bench-par.txt 2>&1 || { cat /tmp/surw-bench-par.txt; exit 1; }
go run ./cmd/surwobs -in /tmp/surw-bench-par.txt -gate 'BenchmarkParallelSessions/workers_1.allocs/schedule<=12'
sched_gate_ok=0
for attempt in 1 2 3; do
    if go run ./cmd/surwobs -in /tmp/surw-bench-par.txt -gate 'BenchmarkParallelSessions/workers_1.schedules/s>=27595'; then
        sched_gate_ok=1
        break
    fi
    go test -bench='^BenchmarkParallelSessions$/^workers_1$' -benchmem -benchtime=20x -run='^$' . > /tmp/surw-bench-par.txt 2>&1 || { cat /tmp/surw-bench-par.txt; exit 1; }
done
test "$sched_gate_ok" -eq 1 || go run ./cmd/surwobs -in /tmp/surw-bench-par.txt -gate 'BenchmarkParallelSessions/workers_1.schedules/s>=27595'
test -s BENCH_obs.json
go run ./cmd/surwobs -bench2json -in /tmp/surw-bench-par.txt -out /tmp/surw-bench-par.json

# Benchmark trajectory gate: -bench-compare must accept an unchanged
# snapshot and reject one whose schedules/s collapsed — the tool ci.sh and
# release branches use against the committed BENCH_obs.json baseline. The
# degraded copy is the real snapshot with its throughput forced to 1, a
# >10% drop by any measure.
go run ./cmd/surwobs -bench-compare /tmp/surw-bench-par.json /tmp/surw-bench-par.json
sed -E 's|"schedules/s": [0-9.eE+-]+|"schedules/s": 1|' /tmp/surw-bench-par.json > /tmp/surw-bench-bad.json
if go run ./cmd/surwobs -bench-compare /tmp/surw-bench-par.json /tmp/surw-bench-bad.json > /dev/null 2>&1; then
    echo "FAIL: -bench-compare accepted a collapsed schedules/s"
    exit 1
fi

# Observability smoke: export a Chrome trace and validate it, then dump a
# flight record from a failing SCTBench target, validate it, and replay it
# bit-exactly.
rm -rf /tmp/surw-obs-smoke
mkdir -p /tmp/surw-obs-smoke
go run ./cmd/surwrun -target bitshift_5 -alg URW -limit 50 -trace /tmp/surw-obs-smoke/trace.json
go run ./cmd/surwobs -check-trace /tmp/surw-obs-smoke/trace.json
# surwfuzz -metrics files each schedule's decisions once, under the
# algorithm's own name: no record(...) or replay series.
go run ./cmd/surwfuzz -programs 3 -schedules 4 -metrics /tmp/surw-obs-smoke/fuzz.prom > /dev/null
grep -q '^surw_decisions_total{alg="SURW"}' /tmp/surw-obs-smoke/fuzz.prom
if grep -q 'alg="re' /tmp/surw-obs-smoke/fuzz.prom; then
    echo "FAIL: surwfuzz -metrics traced the Recorder or the replay leg"
    exit 1
fi
go run ./cmd/surwrun -target CS/reorder_4 -alg SURW -sessions 1 -limit 2000 -flight-dir /tmp/surw-obs-smoke
FLIGHT=$(ls /tmp/surw-obs-smoke/flight_*.json)
go run ./cmd/surwobs -check-flight "$FLIGHT"
go run ./cmd/surwrun -replay-flight "$FLIGHT"

# Campaign persistence smoke: a tiny two-cell campaign killed after its
# first cell must, on resume at a different worker count, produce
# byte-identical aggregates to an uninterrupted run (crash-safe run-store;
# see internal/campaign).
rm -rf /tmp/surw-campaign
mkdir -p /tmp/surw-campaign
go build -ldflags "-X surw/internal/buildinfo.Version=ci-smoke" -o /tmp/surw-campaign/surwbench ./cmd/surwbench
go build -ldflags "-X surw/internal/buildinfo.Version=ci-smoke" -o /tmp/surw-campaign/surwdash ./cmd/surwdash
/tmp/surw-campaign/surwbench -version | grep -q 'ci-smoke'
CELLS='-sct-targets CS/reorder_4 -sct-algs SURW,RW -sessions 3 -limit 300'
# Uninterrupted reference at 2 workers.
/tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/ref -workers 2 $CELLS -q sct > /dev/null
# Interrupted run: the crash-injection flag kills the process (exit 3)
# after the first completed cell.
if /tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/res -workers 1 $CELLS -stop-after-cells 1 -q sct > /dev/null 2>&1; then
    echo "FAIL: -stop-after-cells did not kill the campaign"
    exit 1
fi
test ! -f /tmp/surw-campaign/res/aggregates.json
# Resume at 4 workers: completed sessions are skipped, the rest execute,
# and the final aggregates must be byte-identical to the reference.
/tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/res -workers 4 $CELLS -q sct > /dev/null
cmp /tmp/surw-campaign/ref/aggregates.json /tmp/surw-campaign/res/aggregates.json

# Dashboard smoke: serve the finished campaign read-only and validate every
# endpoint — Prometheus content type, JSON aggregates, one SSE event, build
# identity.
/tmp/surw-campaign/surwdash -store /tmp/surw-campaign/ref -addr 127.0.0.1:18099 > /tmp/surw-campaign/dash.log 2>&1 &
DASH_PID=$!
trap 'kill $DASH_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18099/buildinfo > /dev/null 2>&1 && break
    sleep 0.2
done
curl -si http://127.0.0.1:18099/metrics | grep -i '^content-type: text/plain; version=0.0.4'
curl -s http://127.0.0.1:18099/metrics | grep -q '^surw_campaign_sessions_stored 6$'
curl -s http://127.0.0.1:18099/api/campaign | grep -q '"sessions": 6'
curl -s http://127.0.0.1:18099/buildinfo | grep -q '"version": "ci-smoke"'
curl -sN --max-time 2 http://127.0.0.1:18099/events > /tmp/surw-campaign/sse.txt || true
grep -q '^event: snapshot' /tmp/surw-campaign/sse.txt
kill $DASH_PID 2>/dev/null || true
trap - EXIT

# Distributed campaign smoke: shard a campaign over a coordinator and two
# loopback workers, kill one worker mid-run (its leases expire and requeue
# on the survivor), and require the final aggregates to be byte-identical
# to a single-process run of the same campaign — distribution, like
# crash/resume, must be an execution-order change only. The grid is larger
# than the resume smoke's (200 sessions, batched one per lease) so the
# kill reliably lands while leases are in flight.
go build -ldflags "-X surw/internal/buildinfo.Version=ci-smoke" -o /tmp/surw-campaign/surwworker ./cmd/surwworker
DCELLS='-sct-targets CS/reorder_4 -sct-algs SURW,RW -sessions 100 -limit 300'
/tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/dref -workers 4 $DCELLS -q sct > /dev/null
/tmp/surw-campaign/surwbench -coordinate 127.0.0.1:18071 -campaign /tmp/surw-campaign/dist \
    -lease-ttl 2s -lease-batch 1 $DCELLS -q sct > /dev/null &
COORD_PID=$!
trap 'kill $COORD_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18071/v1/status > /dev/null 2>&1 && break
    sleep 0.2
done
curl -s http://127.0.0.1:18071/metrics | grep -q '^surw_remote_sessions_planned 200$'
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18071 -name doomed -workers 1 -q &
DOOMED_PID=$!
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18071 -name survivor -workers 2 -q &
SURVIVOR_PID=$!
sleep 0.3
kill -9 $DOOMED_PID 2>/dev/null || true
wait $SURVIVOR_PID
wait $COORD_PID
trap - EXIT
cmp /tmp/surw-campaign/dref/aggregates.json /tmp/surw-campaign/dist/aggregates.json

# Schedule-equivalence dedup smoke: the Figure 1 bitshift coverage probe
# under URW and RW, sharded over a coordinator and two loopback workers.
# Class fingerprints ride the session records, so the deduplicated
# aggregates (the dedup block: distinct classes, duplicate rate,
# Good-Turing/Chao1) must be byte-identical to a local run's, and with
# 3x200 schedules over the probe's C(8,4)=70 classes the duplicate rate
# must be genuinely nonzero — which the dashboard served over the
# distributed store must report.
KCELLS='-sct-targets Fig1/bitshift_4 -sct-algs URW,RW -sessions 3 -limit 200 -sct-coverage'
/tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/kref -workers 2 $KCELLS -q sct > /dev/null
/tmp/surw-campaign/surwbench -coordinate 127.0.0.1:18072 -campaign /tmp/surw-campaign/kdist \
    -lease-batch 2 $KCELLS -q sct > /tmp/surw-campaign/kdist.log 2>&1 &
COORD_PID=$!
trap 'kill $COORD_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18072/v1/status > /dev/null 2>&1 && break
    sleep 0.2
done
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18072 -name k1 -workers 2 -q &
K1_PID=$!
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18072 -name k2 -workers 2 -q &
K2_PID=$!
wait $K1_PID
wait $K2_PID
wait $COORD_PID
trap - EXIT
cmp /tmp/surw-campaign/kref/aggregates.json /tmp/surw-campaign/kdist/aggregates.json
grep -q '"dedup"' /tmp/surw-campaign/kdist/aggregates.json
# surwbench prints the per-cell dedup footer after writing aggregates.
grep -q 'duplicate rate' /tmp/surw-campaign/kdist.log
# The dashboard over the distributed store must expose a nonzero
# campaign-wide duplicate rate and the per-cell gauge for the probe.
/tmp/surw-campaign/surwdash -store /tmp/surw-campaign/kdist -addr 127.0.0.1:18073 > /dev/null 2>&1 &
DASH_PID=$!
trap 'kill $DASH_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18073/buildinfo > /dev/null 2>&1 && break
    sleep 0.2
done
curl -s http://127.0.0.1:18073/metrics > /tmp/surw-campaign/kmetrics.txt
grep -q 'surw_campaign_cell_duplicate_rate{target="Fig1/bitshift_4"' /tmp/surw-campaign/kmetrics.txt
DUPRATE=$(awk '/^surw_campaign_duplicate_rate /{print $2}' /tmp/surw-campaign/kmetrics.txt)
awk -v r="$DUPRATE" 'BEGIN { exit (r > 0 ? 0 : 1) }'
kill $DASH_PID 2>/dev/null || true
trap - EXIT

# Fleet tracing smoke: the same bitshift campaign once more, now with
# distributed tracing on (-fleet-trace) and the full worker observability
# surface exercised (-metrics, -trace, -watchdog). Two invariants, both
# sides of the DESIGN §12 covenant:
#   1. aggregates.json is byte-identical to the untraced local reference
#      (kref above) — tracing perturbs nothing;
#   2. surwobs assembles at least one complete lease→submit trace from
#      the coordinator's span log — tracing observed everything.
# The disabled-path cost is pinned elsewhere: the pooled allocs gate above
# runs with the nil tracer, and TestNilSpanLogZeroAllocs holds the nil
# SpanLog at exactly zero allocs/op.
/tmp/surw-campaign/surwbench -coordinate 127.0.0.1:18074 -campaign /tmp/surw-campaign/tdist \
    -lease-batch 2 -fleet-trace /tmp/surw-campaign/fleet.spans.jsonl \
    $KCELLS -q sct > /tmp/surw-campaign/tdist.log 2>&1 &
COORD_PID=$!
trap 'kill $COORD_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18074/v1/status > /dev/null 2>&1 && break
    sleep 0.2
done
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18074 -name t1 -workers 2 \
    -metrics 127.0.0.1:18075 -trace /tmp/surw-campaign/t1.spans.jsonl -watchdog 60s -q &
T1_PID=$!
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18074 -name t2 -workers 2 -q &
T2_PID=$!
wait $T1_PID
wait $T2_PID
wait $COORD_PID
trap - EXIT
cmp /tmp/surw-campaign/kref/aggregates.json /tmp/surw-campaign/tdist/aggregates.json
# The traced worker wrote its local span view.
test -s /tmp/surw-campaign/t1.spans.jsonl
# Assemble the fleet log: exits non-zero unless >=1 trace is complete
# (single lease root, resolving parents, session/prefix-replay/submit
# spans, >=2 tracks). Then render it and hold the rendering to the same
# Chrome trace_event validation the decision traces pass.
go run ./cmd/surwobs -assemble-trace /tmp/surw-campaign/fleet.spans.jsonl \
    -out /tmp/surw-campaign/fleet.json
go run ./cmd/surwobs -check-trace /tmp/surw-campaign/fleet.json

# Exploration-atlas smoke: the bitshift coverage grid once more with the
# atlas attached. Three invariants:
#   1. aggregates.json stays byte-identical to the atlas-less reference
#      (kref) — cartography observes, never perturbs;
#   2. surwobs validates the atlas.json export and renders the SVG atlas;
#   3. the drift verdicts are right: URW really is uniform over the
#      probe's 70 classes (ok), while RW — literally the unweighted
#      random walk the paper corrects — is biased enough that 600
#      samples trip the chi-square drift alarm (DRIFT).
/tmp/surw-campaign/surwbench -campaign /tmp/surw-campaign/atl -workers 2 -atlas $KCELLS -q sct \
    > /tmp/surw-campaign/atl.log 2>&1
cmp /tmp/surw-campaign/kref/aggregates.json /tmp/surw-campaign/atl/aggregates.json
test -s /tmp/surw-campaign/atl/atlas.json
go run ./cmd/surwobs -atlas /tmp/surw-campaign/atl/atlas.json \
    -out /tmp/surw-campaign/atl.svg > /tmp/surw-campaign/atl-cells.txt
grep '<svg' /tmp/surw-campaign/atl.svg > /dev/null
grep 'atlas cell Fig1/bitshift_4/URW: .* ok$' /tmp/surw-campaign/atl-cells.txt
grep 'atlas cell Fig1/bitshift_4/RW: .* DRIFT$' /tmp/surw-campaign/atl-cells.txt

# Yield-guided leasing smoke: the same grid sharded over a coordinator with
# -yield-leases and two atlas-carrying workers. The weighted draw reorders
# grants (nonzero yield-weighted count) but sessions are deterministic, so
# aggregates stay byte-identical to the local reference; the coordinator
# merges the workers' atlases into DIR/atlas.json, and the dashboard served
# over the finished store renders the heatmap, depth profile, uniformity
# gauges, and yield panel from it.
/tmp/surw-campaign/surwbench -coordinate 127.0.0.1:18076 -campaign /tmp/surw-campaign/ydist \
    -lease-batch 2 -yield-leases $KCELLS -q sct > /tmp/surw-campaign/ydist.log 2>&1 &
COORD_PID=$!
trap 'kill $COORD_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18076/v1/status > /dev/null 2>&1 && break
    sleep 0.2
done
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18076 -name y1 -workers 2 -atlas -q &
Y1_PID=$!
/tmp/surw-campaign/surwworker -coordinator http://127.0.0.1:18076 -name y2 -workers 2 -atlas -q &
Y2_PID=$!
wait $Y1_PID
wait $Y2_PID
wait $COORD_PID
trap - EXIT
cmp /tmp/surw-campaign/kref/aggregates.json /tmp/surw-campaign/ydist/aggregates.json
grep -E 'coordinator: [1-9][0-9]* yield-weighted grants' /tmp/surw-campaign/ydist.log
test -s /tmp/surw-campaign/ydist/atlas.json
go run ./cmd/surwobs -atlas /tmp/surw-campaign/ydist/atlas.json > /tmp/surw-campaign/ydist-cells.txt
grep 'atlas cell Fig1/bitshift_4/RW: .* DRIFT$' /tmp/surw-campaign/ydist-cells.txt
/tmp/surw-campaign/surwdash -store /tmp/surw-campaign/ydist -addr 127.0.0.1:18077 > /dev/null 2>&1 &
DASH_PID=$!
trap 'kill $DASH_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:18077/buildinfo > /dev/null 2>&1 && break
    sleep 0.2
done
curl -s http://127.0.0.1:18077/ > /tmp/surw-campaign/ydash.html
grep -q 'exploration atlas' /tmp/surw-campaign/ydash.html
grep -q 'atlas-heatmap' /tmp/surw-campaign/ydash.html
grep -q 'atlas-depth' /tmp/surw-campaign/ydash.html
grep -q 'discovery yield' /tmp/surw-campaign/ydash.html
grep -q 'uniformity p' /tmp/surw-campaign/ydash.html
curl -s http://127.0.0.1:18077/api/yield | grep -q '"cells"'
curl -s http://127.0.0.1:18077/metrics > /tmp/surw-campaign/ymetrics.txt
grep -q 'surw_yield_score{target="Fig1/bitshift_4"' /tmp/surw-campaign/ymetrics.txt
grep -q 'surw_atlas_uniformity_p{target="Fig1/bitshift_4"' /tmp/surw-campaign/ymetrics.txt
grep -q 'surw_atlas_drift_alarm{target="Fig1/bitshift_4",algorithm="RW"} 1' /tmp/surw-campaign/ymetrics.txt
kill $DASH_PID 2>/dev/null || true
trap - EXIT

# surwport smoke: the real-Go-code pipeline end to end (DESIGN §14).
#   1. Re-port the stdlib worker pool and require the output to match the
#      committed examples/workerpool/ported byte-for-byte — the committed
#      port is never allowed to drift from what the tool emits.
#   2. Run the ported pool as a campaign cell through the surwsync binding
#      frontend and require SURW to find the seeded lost-wakeup deadlock.
#   3. Re-run the cell at a different worker count and require
#      byte-identical aggregates — the goroutine-binding registry must not
#      break the runner's confinement model.
rm -rf /tmp/surw-port
mkdir -p /tmp/surw-port
go run ./cmd/surwport -src examples/workerpool/pool -dst /tmp/surw-port/ported
for f in examples/workerpool/ported/*.go; do
    cmp "$f" "/tmp/surw-port/ported/$(basename "$f")"
done
go run ./examples/workerpool > /tmp/surw-port/demo.txt
grep -q 'bug "deadlock" found at schedule' /tmp/surw-port/demo.txt
grep -q 'replayed: deadlock' /tmp/surw-port/demo.txt
WPCELLS='-sct-targets WP/pool_2w2j -sct-algs SURW,RW -sessions 3 -limit 300'
/tmp/surw-campaign/surwbench -campaign /tmp/surw-port/w2 -workers 2 $WPCELLS -q sct > /dev/null
/tmp/surw-campaign/surwbench -campaign /tmp/surw-port/w1 -workers 1 $WPCELLS -q sct > /dev/null
cmp /tmp/surw-port/w2/aggregates.json /tmp/surw-port/w1/aggregates.json
grep -q '"deadlock"' /tmp/surw-port/w2/aggregates.json

# Fuzz smoke: a short coverage-guided run of each native fuzz target (the
# full checked-in seed corpora already ran as part of `go test` above).
FUZZTIME=10s make fuzz-smoke
