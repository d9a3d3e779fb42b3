package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"surw/internal/atlas"
	"surw/internal/campaign"
	"surw/internal/experiments"
	"surw/internal/obs"
	"surw/internal/remote"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
)

// algorithms is the fixed column set every workload runs.
var algorithms = []string{"SURW", "URW", "RW", "PCT-3", "POS"}

var (
	sampleTargets = []string{"CS/reorder_10", "CS/twostage_20", "CB/stringbuffer-jdk1.4", "Chess/WSQ", "CS/bluetooth_driver", "Inspect/qsort_mt"}
	shimTargets   = []string{"WP/pool_2w2j", "WP/pool_3w2j"}
	huntTargets   = []string{"CS/reorder_10", "CS/twostage_20", "CB/stringbuffer-jdk1.4", "Chess/WSQ", "CS/bluetooth_driver", "CS/account", "CS/lazy01", "CS/deadlock01"}
)

// workloadNames lists the workloads in BENCHMARK.json order; the reason
// each exists is recorded there and in README.md.
var workloadNames = []string{"sample", "sample_traced", "shim_sample", "hunt_store", "fleet_loopback"}

// sizing fixes how much work one pass does. full is what BENCHMARK.json
// measures; quick is the harness tests' size.
type sizing struct {
	sampleSessions, sampleLimit int
	tracedLimit                 int // sample_traced: the slow loop gets a smaller budget, so its pass is sized like the others
	shimSessions, shimLimit     int
	huntSessions, huntLimit     int
	minPasses                   int // untraced run
	minTracedPasses             int // traced run: of each kind
	ladderN                     int // schedules per ladder micro-run
}

var (
	fullSizing  = sizing{sampleSessions: 4, sampleLimit: 1000, tracedLimit: 400, shimSessions: 2, shimLimit: 200, huntSessions: 60, huntLimit: 300, minPasses: 8, minTracedPasses: 2, ladderN: 200}
	quickSizing = sizing{sampleSessions: 2, sampleLimit: 30, tracedLimit: 20, shimSessions: 1, shimLimit: 15, huntSessions: 3, huntLimit: 30, minPasses: 2, minTracedPasses: 1, ladderN: 10}
)

// outcome is what the end-to-end counts need from one session.
type outcome struct{ firstBug, schedules int }

// passResult is the checked output of one pass.
type passResult struct {
	outcomes   []outcome // plan order
	failed     int       // sessions that errored or are missing from the store
	digest     [sha256.Size]byte
	grid       []*runner.Result // RunTarget workloads: one per cell
	aggregates []byte           // store workloads: aggregates.json
}

func (r *passResult) totals() (schedules, found int) {
	for _, o := range r.outcomes {
		schedules += o.schedules
		if o.firstBug >= 0 {
			found++
		}
	}
	return schedules, found
}

// workload is one named benchmark input. pass runs it once with fresh
// state and is timed by the caller from call to return; the collect
// function it returns is then called untimed to gather the outcomes and
// release the pass's state.
type workload interface {
	planned() int
	pass(tr passTrace) (collect func() (*passResult, error), err error)
	// crossCheck runs the workload's equalities against other
	// configurations once, on the warm-up pass's result.
	crossCheck(ref *passResult) (problems []string)
	// ladderTargets are the cells the per-layer micro-runs use.
	ladderTargets() []runner.Target
}

func resolveTargets(names []string) ([]runner.Target, error) {
	out := make([]runner.Target, len(names))
	for i, n := range names {
		t, ok := sctbench.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown target %q", n)
		}
		out[i] = t
	}
	return out, nil
}

func newWorkload(name string, seed int64, sz sizing, dirs *scratch) (workload, error) {
	switch name {
	case "sample", "sample_traced":
		tgts, err := resolveTargets(sampleTargets)
		if err != nil {
			return nil, err
		}
		limit := sz.sampleLimit
		if name == "sample_traced" {
			limit = sz.tracedLimit
		}
		return &gridWorkload{name: name, tgts: tgts, observed: name == "sample_traced",
			cfg: runner.Config{Sessions: sz.sampleSessions, Limit: limit, Seed: seed, Workers: 2}}, nil
	case "shim_sample":
		tgts, err := resolveTargets(shimTargets)
		if err != nil {
			return nil, err
		}
		return &gridWorkload{name: name, tgts: tgts,
			cfg: runner.Config{Sessions: sz.shimSessions, Limit: sz.shimLimit, Seed: seed, Workers: 1}}, nil
	case "hunt_store", "fleet_loopback":
		tgts, err := resolveTargets(huntTargets)
		if err != nil {
			return nil, err
		}
		sc := huntScale(seed, sz.huntSessions, sz.huntLimit, huntTargets)
		return &storeWorkload{fleet: name == "fleet_loopback", tgts: tgts, scale: sc,
			plan: experiments.SCTPlan(sc), dirs: dirs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func huntScale(seed int64, sessions, limit int, targets []string) experiments.Scale {
	return experiments.Scale{Seed: seed, Sessions: sessions, Limit: limit, SafeStackLimit: limit,
		Workers: 2, SCTTargets: targets, SCTAlgs: algorithms}
}

// gridWorkload calls runner.RunTarget once per (target, algorithm) cell,
// one cell after another.
type gridWorkload struct {
	name     string
	tgts     []runner.Target
	cfg      runner.Config
	observed bool // attach obs.Metrics and an atlas (fresh per pass)
}

func (w *gridWorkload) planned() int                   { return len(w.tgts) * len(algorithms) * w.cfg.Sessions }
func (w *gridWorkload) ladderTargets() []runner.Target { return w.tgts }

func (w *gridWorkload) pass(tr passTrace) (func() (*passResult, error), error) {
	return runGrid(w.tgts, w.cfg, w.observed, w.name == "shim_sample", tr)
}

func runGrid(tgts []runner.Target, cfg runner.Config, observed, shim bool, tr passTrace) (func() (*passResult, error), error) {
	if observed {
		cfg.Metrics = obs.NewMetrics()
		cfg.Atlas = atlas.New()
	}
	var st *spanStore
	if tr.log != nil {
		st = newSpanStore(nil, tr.log)
		cfg.Store = st
	}
	grid := make([]*runner.Result, 0, len(tgts)*len(algorithms))
	for _, tgt := range tgts {
		for _, alg := range algorithms {
			cell := tr.log.Start(tr.pass, kindCell)
			cell.Span.Target, cell.Span.Alg = tgt.Name, alg
			if st != nil {
				st.cell = cell.Context()
			}
			res, err := runner.RunTarget(tgt, alg, cfg)
			cell.End()
			if err != nil {
				return nil, err
			}
			grid = append(grid, res)
		}
	}
	return func() (*passResult, error) {
		if shim {
			if n := sched.Bindings(); n != 0 {
				return nil, fmt.Errorf("%d goroutine bindings left after the pass", n)
			}
		}
		if st != nil && st.unclosed() > 0 {
			return nil, fmt.Errorf("%d sessions looked up and never stored", st.unclosed())
		}
		out := &passResult{grid: grid}
		h := sha256.New()
		for _, res := range grid {
			fmt.Fprintf(h, "%s/%s\n", res.Target, res.Algorithm)
			for _, s := range res.Sessions {
				out.outcomes = append(out.outcomes, outcome{s.FirstBug, s.Schedules})
				ids := make([]string, 0, len(s.Bugs))
				for id := range s.Bugs {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				fmt.Fprintf(h, "%d %d %d", s.FirstBug, s.Schedules, s.Truncated)
				for _, id := range ids {
					fmt.Fprintf(h, " %s=%d", id, s.Bugs[id])
				}
				fmt.Fprintln(h)
			}
		}
		h.Sum(out.digest[:0])
		return out, nil
	}, nil
}

func gridsEqual(a, b []*runner.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (w *gridWorkload) crossCheck(ref *passResult) []string {
	var problems []string
	// other runs the same cells another way and reports whether the
	// results equal the warm-up pass's.
	other := func(what string, cfg runner.Config, observed bool) {
		collect, err := runGrid(w.tgts, cfg, observed, false, passTrace{})
		if err == nil {
			var res *passResult
			if res, err = collect(); err == nil && !gridsEqual(res.grid, ref.grid) {
				err = fmt.Errorf("results differ")
			}
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", what, err))
		}
	}
	switch w.name {
	case "sample":
		cfg := w.cfg
		cfg.Workers = 1
		other("Workers 1 vs Workers 2", cfg, false)
	case "sample_traced":
		other("sample_traced vs sample", w.cfg, false)
	case "shim_sample":
		for ti, tgt := range w.tgts {
			found := false
			for ai := range algorithms {
				found = found || ref.grid[ti*len(algorithms)+ai].FoundEver()
			}
			if !found {
				problems = append(problems, fmt.Sprintf("%s: no session found the deadlock", tgt.Name))
			}
		}
	}
	return problems
}

// storeWorkload runs the stop-at-first-bug grid into a fresh campaign
// store and renders aggregates.json, either locally through
// experiments.SCTBench or through a loopback coordinator and two workers.
type storeWorkload struct {
	fleet bool
	tgts  []runner.Target
	scale experiments.Scale
	plan  []runner.SessionKey
	dirs  *scratch
}

func (w *storeWorkload) planned() int                   { return len(w.plan) }
func (w *storeWorkload) ladderTargets() []runner.Target { return w.tgts }

func (w *storeWorkload) pass(tr passTrace) (func() (*passResult, error), error) {
	if w.fleet {
		return runFleet(w.scale, w.plan, w.dirs, fleetOptions{batch: 1}, tr)
	}
	return runHunt(w.scale, w.plan, w.dirs, tr)
}

// sctBench turns experiments.SCTBench's panic-on-error into an error.
func sctBench(sc experiments.Scale) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments.SCTBench: %v", r)
		}
	}()
	experiments.SCTBench(sc, nil)
	return nil
}

func runHunt(sc experiments.Scale, plan []runner.SessionKey, dirs *scratch, tr passTrace) (func() (*passResult, error), error) {
	dir, err := dirs.next()
	if err != nil {
		return nil, err
	}
	store, err := campaign.Open(dir)
	if err != nil {
		return nil, err
	}
	cell := tr.log.Start(tr.pass, kindCell)
	cell.Span.Target = "experiments.SCTBench"
	sc.Store = store
	var st *spanStore
	if tr.log != nil {
		st = newSpanStore(store, tr.log)
		st.cell = cell.Context()
		sc.Store = st
	}
	err = sctBench(sc)
	cell.End()
	if err == nil && st != nil && st.unclosed() > 0 {
		err = fmt.Errorf("%d sessions looked up and never stored", st.unclosed())
	}
	var agg []byte
	if err == nil {
		agg, err = writeAggregates(store, dir, tr)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return func() (*passResult, error) { return collectStore(store, plan, agg) }, nil
}

func writeAggregates(store *campaign.Store, dir string, tr passTrace) ([]byte, error) {
	o := tr.log.Start(tr.pass, kindAggregate)
	defer o.End()
	var buf bytes.Buffer
	if err := campaign.WriteAggregates(&buf, store); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "aggregates.json"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// collectStore reads every planned session back from the store and
// releases it.
func collectStore(store *campaign.Store, plan []runner.SessionKey, agg []byte) (*passResult, error) {
	out := &passResult{aggregates: agg, digest: sha256.Sum256(agg), outcomes: make([]outcome, len(plan))}
	if extra := store.Len() - len(plan); extra > 0 {
		out.failed += extra // records nobody planned; missing ones are counted below
	}
	for i, k := range plan {
		s, ok := store.Lookup(k)
		if !ok {
			out.failed++
			out.outcomes[i] = outcome{firstBug: -1}
			continue
		}
		out.outcomes[i] = outcome{s.FirstBug, s.Schedules}
	}
	dir := store.Dir()
	if err := store.Close(); err != nil {
		return nil, err
	}
	return out, os.RemoveAll(dir)
}

// fleetOptions are the knobs the ladder varies; the workload itself always
// runs batch 1.
type fleetOptions struct {
	batch int
	// times, when non-nil, attaches the transport and handler wrappers for
	// their durations even without a span log.
	times *fleetTimes
}

type fleetTimes struct{ rtt, handler rpcTimes }

func runFleet(sc experiments.Scale, plan []runner.SessionKey, dirs *scratch, fo fleetOptions, tr passTrace) (func() (*passResult, error), error) {
	dir, err := dirs.next()
	if err != nil {
		return nil, err
	}
	store, err := campaign.Open(dir)
	if err != nil {
		return nil, err
	}
	log := tr.log
	wrapped := log != nil || fo.times != nil
	times := fo.times
	if times == nil {
		times = &fleetTimes{}
	}
	cell := log.Start(tr.pass, kindCell)
	cell.Span.Target = "fleet drain"
	var ss runner.SessionStore = store
	if log != nil {
		st := newSpanStore(store, log)
		st.cell, st.inHandler = cell.Context(), true
		ss = st
	}
	coord := remote.NewCoordinator(ss, plan, remote.CoordinatorOptions{BatchSize: fo.batch, RetryAfter: 10 * time.Millisecond})
	var handler http.Handler = coord
	if wrapped {
		handler = &timedHandler{next: coord, log: log, times: &times.handler}
	}
	srv := httptest.NewServer(handler)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, 2)
	transports := make([]*http.Transport, len(errs))
	var wg sync.WaitGroup
	for i := range errs {
		transports[i] = &http.Transport{}
		var rt http.RoundTripper = transports[i]
		name := fmt.Sprintf("w%d", i)
		if wrapped {
			rt = &timedTransport{base: rt, log: log, parent: cell.Context(), worker: name, times: &times.rtt}
		}
		wk := &remote.Worker{Coordinator: srv.URL, Name: name, Resolve: sctbench.ByName, Workers: 1,
			Client:     &http.Client{Transport: rt, Timeout: 30 * time.Second},
			BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = wk.Run(ctx); errs[i] != nil {
				cancel() // a failed worker must not leave the other polling forever
			}
		}(i)
	}
	wg.Wait()
	cancel()
	for _, t := range transports {
		t.CloseIdleConnections()
	}
	srv.Close()
	cell.End()
	for _, e := range errs {
		if e != nil && err == nil {
			err = fmt.Errorf("fleet worker: %w", e)
		}
	}
	var agg []byte
	if err == nil {
		agg, err = writeAggregates(store, dir, tr)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return func() (*passResult, error) {
		done := coord.Done()
		res, err := collectStore(store, plan, agg)
		if err == nil && !done {
			err = fmt.Errorf("coordinator not done after the drain")
		}
		return res, err
	}, nil
}

func (w *storeWorkload) crossCheck(ref *passResult) []string {
	what, sc := "Workers 1 vs Workers 2", w.scale
	if w.fleet {
		what = "fleet_loopback vs hunt_store aggregates.json"
	} else {
		sc.Workers = 1
	}
	collect, err := runHunt(sc, w.plan, w.dirs, passTrace{})
	if err == nil {
		var res *passResult
		if res, err = collect(); err == nil && !bytes.Equal(res.aggregates, ref.aggregates) {
			err = fmt.Errorf("bytes differ")
		}
	}
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", what, err)}
	}
	return nil
}

// scratch hands out fresh store directories under one root that is removed
// when the benchmark ends. Every store append fsyncs, so the root is put on
// a tmpfs when one is offered and usable: on a shared disk that one call
// swings a store pass — and set-up, which holds two — by tens of percent
// from run to run. Otherwise it sits under the output directory, inside
// the checkout, and the report says the stores are disk-backed.
type scratch struct {
	root  string
	tmpfs bool
	n     int
}

func newScratch(preferred, fallback string) (*scratch, error) {
	root := ""
	if preferred != "" {
		root, _ = os.MkdirTemp(preferred, "surw-benchmark-")
	}
	if root == "" {
		if err := os.MkdirAll(fallback, 0o755); err != nil {
			return nil, err
		}
		var err error
		if root, err = os.MkdirTemp(fallback, "stores-"); err != nil {
			return nil, err
		}
	}
	var fs syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	tmpfs := syscall.Statfs(root, &fs) == nil && fs.Type == tmpfsMagic
	return &scratch{root: root, tmpfs: tmpfs}, nil
}

func (s *scratch) next() (string, error) {
	s.n++
	dir := filepath.Join(s.root, fmt.Sprintf("store-%d", s.n))
	return dir, os.Mkdir(dir, 0o755)
}

func (s *scratch) remove() error { return os.RemoveAll(s.root) }
