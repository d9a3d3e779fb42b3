package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"surw/internal/buildinfo"
	"surw/internal/obs"
)

// metricSpec names one reported metric. BENCHMARK.json declares the same
// names and units; the harness tests hold the two lists equal.
type metricSpec struct{ name, unit string }

// endToEndSpecs are the gated metrics: set-up time, which the contract
// requires, and the figures that do not depend on how fast the machine
// happens to be running.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"schedules_per_session", "count"},
	{"bug_found_share", "ratio"},
	{"allocs_per_schedule", "count"},
	{"bytes_per_schedule", "B"},
	{"peak_rss_mb", "MiB"},
}

// timingSpecs are the whole-workload timings. Every run computes and
// prints them, but they are not gated: on a shared machine they drift by
// more than any bound worth gating on (README, "Bounds"). BENCHMARK.json
// lists them first among the per-layer metrics.
var timingSpecs = []metricSpec{
	{"schedules_per_s", "1/s"},
	{"sessions_per_s", "1/s"},
	{"cpu_us_per_schedule", "us"},
}

// exactForSeed names the metrics that are a pure function of --seed: two
// runs of one seed must report them identically, whatever the bound.
var exactForSeed = map[string]bool{"schedules_per_session": true, "bug_found_share": true}

// options is one invocation's command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	outDir    string
	report    string // append the full report as one JSON line here
	storeRoot string // tmpfs directory for the stores (main passes /dev/shm); unusable or "" means outDir
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, as the contract fixes it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spread is the five-number summary of one per-pass series.
type spread struct {
	Min, Q1, Median, Q3, Max float64
}

func spreadOf(xs []float64) spread {
	q1, q3 := quartiles(xs)
	return spread{quantile(xs, 0), q1, median(xs), q3, quantile(xs, 1)}
}

// report is everything one run learned; the -compare mode reads these.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Quick      bool     `json:"quick,omitempty"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	StoreRoot  string   `json:"store_root"`
	Tmpfs      bool     `json:"store_on_tmpfs"`
	Passes     int      `json:"passes"`
	Traced     int      `json:"traced_passes,omitempty"`
	Warnings   []string `json:"warnings"`
	Problems   []string `json:"problems"`
	// PerPass holds the quartiles of every per-pass series the end-to-end
	// medians were taken from; PassSeconds is the raw wall time of each
	// untraced pass, in order; SetupRounds the duration of each set-up.
	PerPass     map[string]spread `json:"per_pass"`
	PassSeconds []float64         `json:"pass_seconds"`
	SetupRounds []float64         `json:"setup_rounds"`
	// EndToEnd, Timings and PerLayer hold every metric computed, whichever
	// the result line carries. Timings are the ungated timingSpecs, taken
	// from the untraced passes; a traced run repeats them in PerLayer.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	Timings  map[string]metricValue `json:"timings"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Result   result                 `json:"result"`
}

func (r *report) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// passStats is what timing one pass yields.
type passStats struct {
	wall                time.Duration
	cpu                 time.Duration
	allocs, bytes       uint64
	schedules, sessions int
	failedSessions      int
}

// timedPass runs one pass between two resource readings, then collects and
// checks its output against the reference (nil for the warm-up pass). A
// non-nil log makes it a traced pass.
func timedPass(w workload, log *obs.SpanLog, ref *passResult) (passStats, *passResult, []string, error) {
	runtime.GC()
	r0 := readResources()
	t0 := time.Now()
	root := log.Start(obs.SpanContext{Trace: log.NewRoot().Trace}, kindPass)
	collect, err := w.pass(passTrace{log: log, pass: root.Context()})
	root.End()
	wall := time.Since(t0)
	r1 := readResources()
	if err != nil {
		return passStats{}, nil, nil, err
	}
	res, err := collect()
	if err != nil {
		return passStats{}, nil, nil, err
	}
	st := passStats{wall: wall, cpu: r1.cpu - r0.cpu, allocs: r1.allocs - r0.allocs, bytes: r1.bytes - r0.bytes,
		sessions: len(res.outcomes), failedSessions: res.failed}
	st.schedules, _ = res.totals()
	var problems []string
	if len(res.outcomes) != w.planned() {
		problems = append(problems, fmt.Sprintf("pass returned %d sessions, planned %d", len(res.outcomes), w.planned()))
	}
	if ref != nil {
		differ := 0
		for i := range res.outcomes {
			if i >= len(ref.outcomes) || res.outcomes[i] != ref.outcomes[i] {
				differ++
			}
		}
		st.failedSessions += differ
		if differ > 0 {
			problems = append(problems, fmt.Sprintf("%d sessions differ from the warm-up pass", differ))
		}
		if res.digest != ref.digest {
			problems = append(problems, "output digest differs from the warm-up pass")
		}
	}
	if res.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d sessions errored or are missing from the store", res.failed))
	}
	return st, res, problems, nil
}

// run executes one benchmark invocation and returns its report.
func run(opt options, log io.Writer) (*report, error) {
	runtime.GOMAXPROCS(2)
	sz := fullSizing
	if opt.quick {
		sz = quickSizing
	}
	rep := &report{Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Quick: opt.quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: revision(),
		Warnings: []string{}, Problems: []string{}, PerPass: map[string]spread{}}
	if rep.NProc < 2 {
		rep.warn("nproc %d < 2: the two-worker workloads time-slice one CPU", rep.NProc)
	}

	dirs, err := newScratch(opt.storeRoot, opt.outDir)
	if err != nil {
		return nil, err
	}
	defer dirs.remove()
	defer removeOnSignal(dirs)()
	rep.StoreRoot, rep.Tmpfs = dirs.root, dirs.tmpfs
	if !dirs.tmpfs {
		rep.warn("no tmpfs at --store-root %q: the stores are disk-backed under %s, so set-up and the campaign timings include a disk fsync per session", opt.storeRoot, dirs.root)
	}

	// Set-up: resolve, one untimed warm-up pass that also yields the
	// reference outputs, and the cross-configuration equalities. One
	// set-up is a single draw of a few seconds of CPU-bound work, so it is
	// done setupRounds times over, the first from process start, and
	// setup_s is the median; every later round must reproduce the first.
	var w workload
	var ref *passResult
	roundStart := processStart
	for round := 0; round < setupRounds; round++ {
		wr, err := newWorkload(opt.workload, opt.seed, sz, dirs)
		if err != nil {
			return nil, err
		}
		_, res, problems, err := timedPass(wr, nil, ref)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		rep.Problems = append(rep.Problems, problems...)
		rep.Problems = append(rep.Problems, wr.crossCheck(res)...)
		if round == 0 {
			w, ref = wr, res
		}
		rep.SetupRounds = append(rep.SetupRounds, time.Since(roundStart).Seconds())
		roundStart = time.Now()
	}

	// Measurement: identical passes until the budget is spent. In a traced
	// run the ladder comes first, inside the same budget.
	begin := time.Now()
	layer := map[string]float64{}
	if opt.trace {
		if err := runLadder(w.ladderTargets(), opt.seed, sz, dirs, opt.outDir, layer); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	m, err := measure(w, ref, opt, sz, begin, rep)
	if err != nil {
		return nil, err
	}
	rep.Passes, rep.Traced = len(m.plain), len(m.traced)

	if err := endToEnd(m.plain, ref, median(rep.SetupRounds), rep); err != nil {
		return nil, err
	}
	if opt.trace {
		perLayer(m, layer, rep)
		if err := writeTraceFiles(opt, rep, m.firstLog, len(m.sessionNs)); err != nil {
			return nil, err
		}
	}

	rep.Result.Attempted = w.planned() * (len(m.plain) + len(m.traced))
	for _, st := range append(m.plain, m.traced...) {
		rep.Result.Failed += st.failedSessions
	}
	rep.Result.Correct = len(rep.Problems) == 0 && rep.Result.Failed == 0
	rep.Result.Metrics = rep.EndToEnd
	if opt.trace {
		rep.Result.Metrics = rep.PerLayer
	}
	printReport(log, rep)
	return rep, nil
}

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// hardLimit is when a run stops adding passes whatever its minimum: the
// contract gives one invocation 180 s.
const hardLimit = 150 * time.Second

// measurement is what the timed passes of one run yield.
type measurement struct {
	plain, traced []passStats
	shares        [][]float64 // per shareNames entry, one value per traced pass
	sessionNs     []float64   // session span durations pooled over traced passes
	firstLog      []obs.Span  // the first traced pass, for the trace file
}

// measure runs passes until --seconds have gone by since begin, never
// fewer than the sizing's minimum. In a traced run passes alternate
// untraced / traced.
func measure(w workload, ref *passResult, opt options, sz sizing, begin time.Time, rep *report) (*measurement, error) {
	m := &measurement{shares: make([][]float64, len(shareNames))}
	budget := time.Duration(opt.seconds * float64(time.Second))
	for n := 0; ; n++ {
		enough := len(m.plain) >= sz.minPasses
		if opt.trace {
			enough = len(m.plain) >= sz.minTracedPasses && len(m.traced) >= sz.minTracedPasses
		}
		if n > 0 {
			// Do not start a pass the budget cannot hold.
			period := time.Since(begin) / time.Duration(n)
			if enough && time.Since(begin)+period > budget {
				if over := time.Since(begin) - budget; !opt.quick && over > period {
					rep.warn("the minimum of %d passes took %.1f s, %.1f s over --seconds: at %v a pass is too long for this machine",
						n, time.Since(begin).Seconds(), over.Seconds(), period.Round(time.Millisecond))
				}
				break
			}
			if time.Since(processStart)+period > hardLimit {
				rep.warn("stopped after %d of at least %d passes: %v a pass would overrun the %v limit",
					n, sz.minPasses, period.Round(time.Millisecond), hardLimit)
				break
			}
		}
		var log *obs.SpanLog
		if opt.trace && n%2 == 1 {
			log = obs.NewSpanLog(harnessTrack)
		}
		st, _, problems, err := timedPass(w, log, ref)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n+1, err)
		}
		rep.Problems = append(rep.Problems, problems...)
		if n == 0 && !opt.quick && (st.wall < 400*time.Millisecond || st.wall > 4*time.Second) {
			rep.warn("first timed pass took %.3f s, outside 0.4–4 s: the workload is mis-sized for this machine", st.wall.Seconds())
		}
		if log == nil {
			m.plain = append(m.plain, st)
			continue
		}
		m.traced = append(m.traced, st)
		spans := log.Drain()
		adoptStoreCalls(spans)
		for i, s := range sharesOf(selfTimes(spans)) {
			m.shares[i] = append(m.shares[i], s)
		}
		for _, s := range spans {
			if s.Name == kindSession {
				m.sessionNs = append(m.sessionNs, float64(s.Dur))
			}
		}
		if m.firstLog == nil {
			m.firstLog = spans
		}
	}
	return m, nil
}

func schedulesPerSecond(st passStats) float64 { return float64(st.schedules) / st.wall.Seconds() }

// endToEnd fills the report's end-to-end metrics and ungated timings:
// medians over the untraced passes, exact counts from the reference pass.
func endToEnd(plain []passStats, ref *passResult, setup float64, rep *report) error {
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, st := range plain {
		sch := float64(st.schedules)
		add("pass_s", st.wall.Seconds())
		add("schedules_per_s", schedulesPerSecond(st))
		add("sessions_per_s", float64(st.sessions)/st.wall.Seconds())
		add("cpu_us_per_schedule", float64(st.cpu.Microseconds())/sch)
		add("allocs_per_schedule", float64(st.allocs)/sch)
		add("bytes_per_schedule", float64(st.bytes)/sch)
	}
	rep.PassSeconds = series["pass_s"]
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	refSchedules, refFound := ref.totals()
	e2e := map[string]float64{
		"setup_s":               setup,
		"schedules_per_session": float64(refSchedules) / float64(len(ref.outcomes)),
		"bug_found_share":       float64(refFound) / float64(len(ref.outcomes)),
		"peak_rss_mb":           rss,
	}
	for name, xs := range series {
		rep.PerPass[name] = spreadOf(xs)
		e2e[name] = median(xs)
	}
	rep.EndToEnd = metricMap(endToEndSpecs, e2e, rep)
	rep.Timings = metricMap(timingSpecs, e2e, rep)
	return nil
}

// perLayer adds the span-derived figures to the ladder's and fills the
// report's per-layer metrics.
func perLayer(m *measurement, layer map[string]float64, rep *report) {
	sum := 0.0
	for i, name := range shareNames {
		layer["share."+name] = median(m.shares[i])
		sum += layer["share."+name]
	}
	if math.Abs(sum-1) > 0.1 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("share.* sum to %.3f, not 1 ± 0.1", sum))
	}
	layer["session_p50_ms"] = quantile(m.sessionNs, 0.5) / 1e6
	layer["session_p99_ms"] = quantile(m.sessionNs, 0.99) / 1e6
	rate := func(sts []passStats) float64 {
		xs := make([]float64, len(sts))
		for i, st := range sts {
			xs[i] = schedulesPerSecond(st)
		}
		return median(xs)
	}
	layer["trace.cost_ratio"] = rate(m.plain) / rate(m.traced)
	for name, v := range rep.Timings {
		layer[name] = v.Value
	}
	rep.PerLayer = metricMap(perLayerSpecs, layer, rep)
}

// removeOnSignal removes the scratch root if the process is interrupted or
// terminated mid-run, so a killed benchmark leaves nothing in /dev/shm. The
// returned function ends the watch.
func removeOnSignal(dirs *scratch) (stop func()) {
	sigs := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
			dirs.remove()
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(done)
	}
}

// metricMap turns computed values into the result-line form, in the
// declared names and units; a value that is missing or not finite is a
// correctness problem, not a silent zero.
func metricMap(specs []metricSpec, values map[string]float64, rep *report) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("metric %s has no finite value", s.name))
			v = 0
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out
}

// revision is the VCS commit the binary was built from, when the toolchain
// stamped one (the driver's checkout is not a repository).
func revision() string {
	if rev := buildinfo.Get().Revision; rev != "" {
		return rev
	}
	return "unknown"
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s seed %d: %d timed passes", rep.Workload, rep.Seed, rep.Passes)
	if rep.Trace {
		fmt.Fprintf(w, " + %d traced", rep.Traced)
	}
	fmt.Fprintf(w, " (nproc %d, GOMAXPROCS %d, %s, commit %s, stores under %s)\n",
		rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit, rep.StoreRoot)
	fmt.Fprintf(w, "set-up rounds s: %.4f\n", rep.SetupRounds)
	if p, ok := rep.PerPass["pass_s"]; ok {
		fmt.Fprintf(w, "pass wall s: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f\n", p.Min, p.Q1, p.Median, p.Q3, p.Max)
	}
	printMetrics := func(title string, m map[string]metricValue) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, title)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s", n, m[n].Value, m[n].Unit)
			if p, ok := rep.PerPass[n]; ok {
				fmt.Fprintf(w, "   (per pass q1 %.6g q3 %.6g)", p.Q1, p.Q3)
			}
			fmt.Fprintln(w)
		}
	}
	printMetrics("end-to-end (gated):", rep.EndToEnd)
	printMetrics("timings (not gated):", rep.Timings)
	if rep.Trace {
		printMetrics("per-layer:", rep.PerLayer)
	}
	for _, s := range rep.Warnings {
		fmt.Fprintln(w, "warning:", s)
	}
	for _, s := range rep.Problems {
		fmt.Fprintln(w, "PROBLEM:", s)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
}

// writeTraceFiles writes the first traced pass as Chrome trace_event JSON
// and the layers table beside it.
func writeTraceFiles(opt options, rep *report, spans []obs.Span, sessions int) error {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(opt.outDir, opt.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteSpanChromeTrace(tf, spans); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	lf, err := os.Create(filepath.Join(opt.outDir, opt.workload+".layers.txt"))
	if err != nil {
		return err
	}
	writeLayers(lf, rep, spans, sessions)
	return lf.Close()
}

// writeLayers renders layers.txt: where one traced pass's wall time went,
// by span kind and by share, then the ladder grouped by layer.
func writeLayers(w io.Writer, rep *report, spans []obs.Span, sessions int) {
	fmt.Fprintf(w, "layers: workload %s seed %d commit %s (%d untraced + %d traced passes)\n\n",
		rep.Workload, rep.Seed, rep.Commit, rep.Passes, rep.Traced)
	self, wall := selfTimes(spans)
	stats := kindStats(spans)
	fmt.Fprintf(w, "spans of the first traced pass (wall %.1f ms):\n", wall/1e6)
	fmt.Fprintf(w, "  %-14s %8s %12s %12s %8s %12s %12s\n", "kind", "count", "total ms", "self ms", "self %", "p50 us", "p99 us")
	for k, name := range kindNames {
		s := stats[name]
		pct := 0.0
		if wall > 0 {
			pct = 100 * self[k] / wall
		}
		fmt.Fprintf(w, "  %-14s %8d %12.2f %12.2f %8.2f %12.1f %12.1f\n", name, s.count, s.totalMs, self[k]/1e6, pct, s.p50us, s.p99us)
	}
	fmt.Fprintf(w, "\nshares of a pass's wall time (median over traced passes; %d session spans pooled):\n", sessions)
	sum := 0.0
	for _, name := range shareNames {
		v := rep.PerLayer["share."+name].Value
		sum += v
		fmt.Fprintf(w, "  %-26s %8.4f\n", "share."+name, v)
	}
	fmt.Fprintf(w, "  %-26s %8.4f\n", "sum", sum)
	fmt.Fprintln(w, "\nper-layer metrics:")
	names := make([]string, 0, len(rep.PerLayer))
	for n := range rep.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rep.PerLayer[n].Value, rep.PerLayer[n].Unit)
	}
}

// appendReport adds the report as one line of a JSONL file.
func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
