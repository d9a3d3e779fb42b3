package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/profile"
	"surw/internal/remote"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/surwsync"
)

// perLayerSpecs lists every metric of a traced run: the three ungated
// timings of the whole workload (timingSpecs), the ladder (one public entry
// point per rung, timed from outside on the workload's own cells), then
// the figures derived from the pass spans. The prefix before the
// first dot is the module measured.
var perLayerSpecs = []metricSpec{
	{"schedules_per_s", "1/s"},
	{"sessions_per_s", "1/s"},
	{"cpu_us_per_schedule", "us"},
	{"core.ns_per_decision.SURW", "ns"},
	{"core.ns_per_decision.URW", "ns"},
	{"core.ns_per_decision.RW", "ns"},
	{"core.ns_per_decision.PCT-3", "ns"},
	{"core.ns_per_decision.POS", "ns"},
	{"core.decisions_per_schedule", "count"},
	{"sched.ns_per_event.fast", "ns"},
	{"sched.ns_per_event.slow", "ns"},
	{"sched.ns_per_event.traced", "ns"},
	{"sched.prefix_replay_ratio", "ratio"},
	{"sched.events_per_schedule", "count"},
	{"sched.allocs_per_schedule", "count"},
	{"sched.thread_api_ns_per_op", "ns"},
	{"profile.collect_us", "us"},
	{"runner.session_fixed_us", "us"},
	{"runner.efficiency_w2", "ratio"},
	{"campaign.append_us", "us"},
	{"campaign.lookup_ns", "ns"},
	{"campaign.aggregate_ms", "ms"},
	{"campaign.reopen_ms", "ms"},
	{"campaign.fsync_disk_us", "us"},
	{"remote.lease_rtt_us", "us"},
	{"remote.result_rtt_us", "us"},
	{"remote.handler_lease_us", "us"},
	{"remote.handler_result_us", "us"},
	{"remote.filter_add_ns", "ns"},
	{"remote.overhead_share_b1", "ratio"},
	{"remote.overhead_share_b4", "ratio"},
	{"surwsync.ns_per_op", "ns"},
	{"surwsync.fallback_ns_per_op", "ns"},
	{"surwsync.efficiency_w2", "ratio"},
	{"sync.ns_per_op", "ns"},
	{"obs.tracer_cost_ratio", "ratio"},
	{"atlas.cost_ratio", "ratio"},
	{"share.execute", "ratio"},
	{"share.campaign", "ratio"},
	{"share.remote.coordinator", "ratio"},
	{"share.remote.http", "ratio"},
	{"share.unattributed", "ratio"},
	{"session_p50_ms", "ms"},
	{"session_p99_ms", "ms"},
	{"trace.cost_ratio", "ratio"},
}

// ladderCell is one (target, algorithm) pair readied the way a runner
// session readies it: a census profile and the ProgramInfo built from it.
type ladderCell struct {
	tgt  runner.Target
	alg  string
	info *sched.ProgramInfo
}

func (c ladderCell) opts(seed int64) sched.Options {
	return sched.Options{Base: sched.Base{Seed: seed, ProgSeed: c.tgt.ProgSeed, MaxSteps: c.tgt.MaxSteps},
		Info: c.info, TraceFilter: c.tgt.TraceFilter}
}

// ladderCells readies one target under every algorithm.
func ladderCells(tgt runner.Target, seed int64) []ladderCell {
	// Like the runner, keep whatever counts a crashing or truncated census
	// still yields.
	prof, _ := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: seed + 17, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}})
	all := prof.Instantiate(prof.SelectAll())
	cells := make([]ladderCell, 0, len(algorithms))
	for _, alg := range algorithms {
		info := all
		switch alg {
		case "SURW":
			if sel, ok := prof.SelectSingleVar(rand.New(rand.NewSource(seed))); ok {
				info = prof.Instantiate(sel)
			}
		case "RW", "POS": // the runner profiles for neither
			info = nil
		}
		cells = append(cells, ladderCell{tgt, alg, info})
	}
	return cells
}

// runLadder fills m with the ladder metrics. Every rung is a short fixed
// micro-run; none of it is gated, so it favours coverage over repetition.
func runLadder(tgts []runner.Target, seed int64, sz sizing, dirs *scratch, diskDir string, m map[string]float64) error {
	n := sz.ladderN
	var cells []ladderCell
	const censuses = 5
	t0 := time.Now()
	for _, tgt := range tgts {
		for i := 0; i < censuses; i++ {
			_, _ = profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: seed + int64(i), ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}})
		}
	}
	m["profile.collect_us"] = us(time.Since(t0)) / float64(censuses*len(tgts))
	for _, tgt := range tgts {
		cells = append(cells, ladderCells(tgt, seed)...)
	}

	if err := ladderEngine(cells, seed, n, m); err != nil {
		return err
	}
	if err := ladderRunner(tgts, seed, n, m); err != nil {
		return err
	}
	if err := ladderCampaign(tgts[0], seed, dirs, diskDir, m); err != nil {
		return err
	}
	if err := ladderRemote(tgts, seed, n, dirs, m); err != nil {
		return err
	}
	return ladderShim(seed, n, m)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ladderEngine measures internal/core and internal/sched through
// sched.Pool: the algorithms' decision cost under the timing wrapper, and
// the engine's cost per event on its three loops.
func ladderEngine(cells []ladderCell, seed int64, n int, m map[string]float64) error {
	pool := sched.NewPool()
	defer pool.Close()
	var fast, slow, traced, replay, full time.Duration
	var events, schedules, decisions int
	var mallocs uint64
	algTime := map[string]*algTimer{}
	for _, c := range cells {
		alg, err := core.New(c.alg)
		if err != nil {
			return err
		}
		// timed runs the cell's n schedules, seeds seed..seed+n-1, through
		// run and returns their wall time and event count.
		timed := func(run func(o sched.Options) *sched.Result) (d time.Duration, steps int) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				steps += run(c.opts(seed + int64(i))).Steps
			}
			return time.Since(t0), steps
		}
		plain := func(o sched.Options) *sched.Result { return pool.Run(c.tgt.Prog, alg, o) }

		// Fast loop, with the allocation count taken around it.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d, steps := timed(plain)
		runtime.ReadMemStats(&ms1)
		fast += d
		events += steps
		mallocs += ms1.Mallocs - ms0.Mallocs
		schedules += n

		d, _ = timed(func(o sched.Options) *sched.Result {
			o.DisableBatching = true
			return pool.Run(c.tgt.Prog, alg, o)
		})
		slow += d
		collector := obs.NewCollector(64)
		d, _ = timed(func(o sched.Options) *sched.Result {
			o.Tracer = collector
			return pool.Run(c.tgt.Prog, alg, o)
		})
		traced += d

		// Prefix replay against full runs of the same seeds.
		_, cp := pool.RunPrefix(c.tgt.Prog, alg, c.opts(seed))
		d, _ = timed(func(o sched.Options) *sched.Result { return pool.RunFrom(cp, c.tgt.Prog, alg, o) })
		replay += d
		d, _ = timed(plain)
		full += d

		at := algTime[c.alg]
		if at == nil {
			at = &algTimer{}
			algTime[c.alg] = at
		}
		wrapped := wrapAlgorithm(alg, at)
		before := at.calls
		timed(func(o sched.Options) *sched.Result { return pool.Run(c.tgt.Prog, wrapped, o) })
		// The clock's own share of those calls, priced right after them:
		// on a shared machine a clock read costs what its neighbours allow.
		at.clock += float64(at.calls-before) * clockCost()
	}
	for name, at := range algTime {
		ns := max(float64(at.ns)-at.clock, 0)
		m["core.ns_per_decision."+name] = ns / float64(max(at.decisions, 1))
		decisions += at.decisions
	}
	m["core.decisions_per_schedule"] = float64(decisions) / float64(schedules)
	m["sched.ns_per_event.fast"] = float64(fast) / float64(events)
	m["sched.ns_per_event.slow"] = float64(slow) / float64(events)
	m["sched.ns_per_event.traced"] = float64(traced) / float64(events)
	m["sched.prefix_replay_ratio"] = float64(replay) / float64(full)
	m["sched.events_per_schedule"] = float64(events) / float64(schedules)
	m["sched.allocs_per_schedule"] = float64(mallocs) / float64(schedules)
	return nil
}

// gridSeconds times RunTarget over every (target, algorithm) cell.
func gridSeconds(tgts []runner.Target, cfg runner.Config) (float64, error) {
	t0 := time.Now()
	for _, tgt := range tgts {
		for _, alg := range algorithms {
			if _, err := runner.RunTarget(tgt, alg, cfg); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}

// ladderRunner measures internal/runner's per-session fixed cost and its
// two-worker efficiency, and what attaching each observer costs a batch.
func ladderRunner(tgts []runner.Target, seed int64, n int, m map[string]float64) error {
	ctx := context.Background()
	sessions := 0
	t0 := time.Now()
	for _, tgt := range tgts {
		for _, alg := range algorithms {
			for s := 0; s < 4; s++ {
				if _, err := runner.RunSession(ctx, tgt, alg, runner.Config{Limit: 1, Seed: seed}, s); err != nil {
					return err
				}
				sessions++
			}
		}
	}
	m["runner.session_fixed_us"] = us(time.Since(t0)) / float64(sessions)

	cfg := runner.Config{Sessions: 4, Limit: max(n/4, 2), Seed: seed, Workers: 1}
	w1, err := gridSeconds(tgts, cfg)
	if err != nil {
		return err
	}
	cfg.Workers = 2
	w2, err := gridSeconds(tgts, cfg)
	if err != nil {
		return err
	}
	// Rate at two workers over twice the rate at one.
	m["runner.efficiency_w2"] = w1 / (2 * w2)

	cfg.Workers = 1
	cfg.Metrics = obs.NewMetrics()
	withTracer, err := gridSeconds(tgts, cfg)
	if err != nil {
		return err
	}
	cfg.Metrics, cfg.Atlas = nil, atlas.New()
	withAtlas, err := gridSeconds(tgts, cfg)
	if err != nil {
		return err
	}
	m["obs.tracer_cost_ratio"] = withTracer / w1
	m["atlas.cost_ratio"] = withAtlas / w1
	return nil
}

// ladderCampaign measures internal/campaign's store under the scratch
// root, and what the write and fsync of one record cost on the checkout's
// own disk.
func ladderCampaign(tgt runner.Target, seed int64, dirs *scratch, diskDir string, m map[string]float64) error {
	const records = 300
	keys := make([]runner.SessionKey, records)
	cfg := runner.Config{Limit: 300, Seed: seed, StopAtFirstBug: true}
	for i := range keys {
		keys[i] = runner.KeyFor(tgt, algorithms[i%len(algorithms)], cfg, i/len(algorithms))
	}
	sess := func(i int) *runner.Session {
		return &runner.Session{FirstBug: 1 + i%7, Bugs: map[string]int{"ladder": 1}, Schedules: 1 + i%7}
	}
	dir, err := dirs.next()
	if err != nil {
		return err
	}
	store, err := campaign.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, k := range keys {
		if _, err := store.Store(k, sess(i)); err != nil {
			store.Close()
			return err
		}
	}
	m["campaign.append_us"] = us(time.Since(t0)) / records
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := store.Lookup(k); !ok {
			store.Close()
			return fmt.Errorf("campaign ladder: stored key missing")
		}
	}
	m["campaign.lookup_ns"] = float64(time.Since(t0)) / records
	t0 = time.Now()
	store.Aggregate()
	m["campaign.aggregate_ms"] = us(time.Since(t0)) / 1e3
	t0 = time.Now()
	if err := store.Close(); err != nil {
		return err
	}
	if store, err = campaign.Open(dir); err != nil {
		return err
	}
	m["campaign.reopen_ms"] = us(time.Since(t0)) / 1e3
	if err := store.Close(); err != nil {
		return err
	}

	// A record's worth of bytes written and fsynced to a plain file under
	// the output directory: what each append would add were the stores on
	// the checkout's disk.
	fi, err := os.Stat(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		return err
	}
	line := make([]byte, max(int(fi.Size())/records, 1))
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(diskDir, "fsync-probe-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const syncs = 50
	t0 = time.Now()
	for i := 0; i < syncs; i++ {
		if _, err := f.Write(line); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	m["campaign.fsync_disk_us"] = us(time.Since(t0)) / syncs
	return nil
}

// ladderRemote measures internal/remote: round trips and handler times
// from the wrappers on a small drain, the seen-class filter, and the share
// of a drain that the control plane costs at batch sizes 1 and 4.
func ladderRemote(tgts []runner.Target, seed int64, n int, dirs *scratch, m map[string]float64) error {
	names := make([]string, 0, 2)
	for _, t := range tgts[:min(2, len(tgts))] {
		names = append(names, t.Name)
	}
	sc := huntScale(seed, max(n/20, 2), max(n/4, 2), names)
	plan := experiments.SCTPlan(sc)
	drain := func(batch int, times *fleetTimes) (float64, error) {
		t0 := time.Now()
		collect, err := runFleet(sc, plan, dirs, fleetOptions{batch: batch, times: times}, passTrace{})
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		_, err = collect()
		return d, err
	}
	t0 := time.Now()
	collect, err := runHunt(sc, plan, dirs, passTrace{})
	local := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if _, err := collect(); err != nil {
		return err
	}
	var times fleetTimes
	if _, err := drain(1, &times); err != nil {
		return err
	}
	m["remote.lease_rtt_us"] = median(times.rtt.lease) / 1e3
	m["remote.result_rtt_us"] = median(times.rtt.result) / 1e3
	m["remote.handler_lease_us"] = median(times.handler.lease) / 1e3
	m["remote.handler_result_us"] = median(times.handler.result) / 1e3
	for _, batch := range []int{1, 4} {
		d, err := drain(batch, nil)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("remote.overhead_share_b%d", batch)] = 1 - local/d
	}

	const adds = 20000
	f := remote.NewClassFilter(0, 0)
	t0 = time.Now()
	for i := uint64(0); i < adds; i++ {
		f.Add(i * 0x9e3779b97f4a7c15)
	}
	m["remote.filter_add_ns"] = float64(time.Since(t0)) / adds
	return nil
}

// ladderShim prices the surwsync frontend: the same lock/unlock loop through
// the shim under a session, through the Thread API, through the shim with
// no session (its fallback to real sync), and on a plain sync.Mutex; then
// the two-worker efficiency of a shimmed target.
func ladderShim(seed int64, n int, m map[string]float64) error {
	ops := max(n, 10) * 20
	pool := sched.NewPool()
	defer pool.Close()
	alg := core.NewRandomWalk()
	perOp := func(prog func(*sched.Thread)) float64 {
		t0 := time.Now()
		pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}})
		return float64(time.Since(t0)) / float64(2*ops)
	}
	m["surwsync.ns_per_op"] = perOp(surwsync.Program(func() {
		var mu surwsync.Mutex
		for i := 0; i < ops; i++ {
			mu.Lock()
			mu.Unlock()
		}
	}))
	if b := sched.Bindings(); b != 0 {
		return fmt.Errorf("shim ladder left %d goroutine bindings", b)
	}
	m["sched.thread_api_ns_per_op"] = perOp(func(t *sched.Thread) {
		mu := t.NewMutex("ladder")
		for i := 0; i < ops; i++ {
			mu.Lock(t)
			mu.Unlock(t)
		}
	})
	var shim surwsync.Mutex
	t0 := time.Now()
	for i := 0; i < ops*10; i++ {
		shim.Lock()
		shim.Unlock()
	}
	m["surwsync.fallback_ns_per_op"] = float64(time.Since(t0)) / float64(20*ops)
	var real sync.Mutex
	t0 = time.Now()
	for i := 0; i < ops*10; i++ {
		real.Lock()
		real.Unlock()
	}
	m["sync.ns_per_op"] = float64(time.Since(t0)) / float64(20*ops)

	tgt, ok := sctbench.ByName(shimTargets[0])
	if !ok {
		return fmt.Errorf("unknown target %q", shimTargets[0])
	}
	cfg := runner.Config{Sessions: 2, Limit: max(n/4, 2), Seed: seed, Workers: 1}
	w1, err := gridSeconds([]runner.Target{tgt}, cfg)
	if err != nil {
		return err
	}
	cfg.Workers = 2
	w2, err := gridSeconds([]runner.Target{tgt}, cfg)
	if err != nil {
		return err
	}
	m["surwsync.efficiency_w2"] = w1 / (2 * w2)
	return nil
}
