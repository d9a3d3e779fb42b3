package crosscheck

// Snapshot-identity oracle for prefix checkpointing (sched.Pool.RunPrefix /
// RunFrom) and the batched run-to-next-decision engine. DESIGN.md promises
// both fast paths are pure performance: a checkpointed, batched session
// must be indistinguishable — traces, fingerprints, bug IDs, aggregates —
// from the verbatim slow scheduling loop. This file earns that claim per
// generated program: every CheckProgram run re-executes a session of
// schedules through both paths and diffs the results byte for byte — and
// then does it again with a tracer on both sides, because the batched
// engine is also the one production watches: everything a sched.Tracer can
// see of a schedule must be what the slow loop would have shown it.

import (
	"fmt"
	"math/rand"
	"slices"

	"surw/internal/core"
	"surw/internal/sched"
)

// checkpointAlgs are the samplers the snapshot-identity check runs:
// RW exercises the IndexChooser/SourceChooser fast path, SURW the
// profile-driven path (Info predicates, spawn observation).
var checkpointAlgs = []string{"RW", "SURW"}

// checkpointIdentity runs opts.Schedules schedules of prog per algorithm
// through two arms sharing seeds: the checkpointed arm captures the forced
// prefix on the first schedule (RunPrefix) and replays it on the rest
// (RunFrom), all on the batched engine; the reference arm forces the slow
// loop with DisableBatching and no checkpoint. An EventLog records both
// sides' full event streams, replayed prefix included, and every observable
// field must match exactly, as must the aggregated fingerprint multisets.
func checkpointIdentity(name string, prog func(*sched.Thread), info *sched.ProgramInfo, opts Options) error {
	for _, algName := range checkpointAlgs {
		fastAlg, err := core.New(algName)
		if err != nil {
			return fmt.Errorf("crosscheck: %s: %w", name, err)
		}
		slowAlg, err := core.New(algName)
		if err != nil {
			return fmt.Errorf("crosscheck: %s: %w", name, err)
		}
		fastPool, slowPool := sched.NewPool(), sched.NewPool()
		var fastLog, slowLog sched.EventLog
		var cp *sched.Checkpoint
		fastIlv, slowIlv := map[uint64]int{}, map[uint64]int{}
		for i := 0; i < opts.Schedules; i++ {
			so := sched.Options{Base: sched.Base{Seed: opts.Seed + int64(i)*104729 + 3}, Info: info, Tracer: &fastLog}
			var fast *sched.Result
			if i == 0 {
				fast, cp = fastPool.RunPrefix(prog, fastAlg, so)
			} else {
				fast = fastPool.RunFrom(cp, prog, fastAlg, so)
			}
			sos := so
			sos.DisableBatching, sos.Tracer = true, &slowLog
			slow := slowPool.Run(prog, slowAlg, sos)
			if d := diffResults(fast, slow); d != "" {
				return fmt.Errorf("crosscheck: %s: %s seed %d: checkpointed run diverged from slow loop: %s", name, algName, so.Seed, d)
			}
			if d := diffTraces(fastLog.Events, slowLog.Events); d != "" {
				return fmt.Errorf("crosscheck: %s: %s seed %d: checkpointed trace diverged from slow loop: %s", name, algName, so.Seed, d)
			}
			fastIlv[fast.InterleavingHash]++
			slowIlv[slow.InterleavingHash]++
			fastIlv[fast.ClassHash]++
			slowIlv[slow.ClassHash]++
		}
		if len(fastIlv) != len(slowIlv) {
			return fmt.Errorf("crosscheck: %s: %s: aggregate interleaving counts diverged: %d vs %d", name, algName, len(fastIlv), len(slowIlv))
		}
		for h, n := range fastIlv {
			if slowIlv[h] != n {
				return fmt.Errorf("crosscheck: %s: %s: aggregate count for fingerprint %#x diverged: %d vs %d", name, algName, h, n, slowIlv[h])
			}
		}
	}
	return nil
}

// decisionRec is one Tracer.Decide call with everything the call could
// observe: the Decision itself, the enabled set st exposed, and the
// algorithm's annotation.
type decisionRec struct {
	d       sched.Decision
	enabled []sched.ThreadID
	annot   string
}

// decisionLog is a sched.Tracer keeping the current schedule's calls, and
// the first State.EnabledRank answer that was not the index Enabled() gives.
type decisionLog struct {
	recs    []decisionRec
	buf     []byte
	rankErr string
}

func (l *decisionLog) BeginSchedule(string) { l.recs = l.recs[:0] }

func (l *decisionLog) Decide(d sched.Decision, st *sched.State) {
	l.checkRanks("Decide", st, d.Chosen)
	l.buf = st.AppendAlgAnnotation(l.buf[:0])
	l.recs = append(l.recs, decisionRec{d, slices.Clone(st.Enabled()), string(l.buf)})
}

func (l *decisionLog) EndSchedule(*sched.Result) {}

// checkRanks holds st.EnabledRank to its definition — the index of the
// thread in st.Enabled(), -1 for a thread that is not there — for first
// (asked before anything here has materialized the slice) and then for
// every TID from -1 to one past the last thread.
func (l *decisionLog) checkRanks(where string, st *sched.State, first sched.ThreadID) {
	if l.rankErr != "" {
		return
	}
	ok := func(tid sched.ThreadID) bool {
		got := st.EnabledRank(tid)
		if want := slices.Index(st.Enabled(), tid); got != want {
			l.rankErr = fmt.Sprintf("%s: EnabledRank(T%d) = %d, want %d (enabled %v)", where, tid, got, want, st.Enabled())
		}
		return l.rankErr == ""
	}
	if !ok(first) {
		return
	}
	for tid := sched.ThreadID(-1); int(tid) <= st.NumThreads(); tid++ {
		if !ok(tid) {
			return
		}
	}
}

// rankProbe is a random walk that runs checkRanks wherever an algorithm is
// handed a State: Next, Observe and — where Enabled() is still the set of
// the last decision — ObserveSpawn.
type rankProbe struct {
	log *decisionLog
	rng *rand.Rand
}

func (p *rankProbe) Name() string                               { return rankProbeName }
func (p *rankProbe) Begin(_ *sched.ProgramInfo, rng *rand.Rand) { p.rng = rng }
func (p *rankProbe) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	tid := e[p.rng.Intn(len(e))]
	p.log.checkRanks("Next", st, tid)
	return tid
}
func (p *rankProbe) Observe(ev sched.Event, st *sched.State) { p.log.checkRanks("Observe", st, ev.TID) }
func (p *rankProbe) ObserveSpawn(_, child sched.ThreadID, st *sched.State) {
	p.log.checkRanks("ObserveSpawn", st, child)
}

const rankProbeName = "rank-probe"

// algorithm is core.New plus the probe, which reports into l.
func (l *decisionLog) algorithm(name string) (sched.Algorithm, error) {
	if name == rankProbeName {
		return &rankProbe{log: l}, nil
	}
	return core.New(name)
}

// diffDecisions names the first mismatch between two decision streams.
func diffDecisions(a, b []decisionRec) string {
	for i := range min(len(a), len(b)) {
		switch {
		case a[i].d != b[i].d:
			return fmt.Sprintf("decision %d: %+v vs %+v", i, a[i].d, b[i].d)
		case !slices.Equal(a[i].enabled, b[i].enabled):
			return fmt.Sprintf("decision %d: enabled set %v vs %v", i, a[i].enabled, b[i].enabled)
		case a[i].annot != b[i].annot:
			return fmt.Sprintf("decision %d: annotation %q vs %q", i, a[i].annot, b[i].annot)
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d decisions vs %d", len(a), len(b))
	}
	return ""
}

// decisionIdentity is checkpointIdentity's twin for what a tracer sees:
// the same two arms — checkpointed and batched against DisableBatching —
// each with a decisionLog attached, must show it the identical Decide
// sequence (forced steps replayed from the checkpoint included) and return
// equal Results.
func decisionIdentity(name string, prog func(*sched.Thread), info *sched.ProgramInfo, opts Options) error {
	for _, algName := range append(slices.Clone(checkpointAlgs), rankProbeName) {
		fastLog, slowLog := &decisionLog{}, &decisionLog{}
		fastAlg, err := fastLog.algorithm(algName)
		if err != nil {
			return fmt.Errorf("crosscheck: %s: %w", name, err)
		}
		slowAlg, err := slowLog.algorithm(algName)
		if err != nil {
			return fmt.Errorf("crosscheck: %s: %w", name, err)
		}
		fastPool, slowPool := sched.NewPool(), sched.NewPool()
		defer fastPool.Close()
		defer slowPool.Close()
		var cp *sched.Checkpoint
		for i := 0; i < opts.Schedules; i++ {
			so := sched.Options{Base: sched.Base{Seed: opts.Seed + int64(i)*104729 + 5}, Info: info, Tracer: fastLog}
			var fast *sched.Result
			if i == 0 {
				fast, cp = fastPool.RunPrefix(prog, fastAlg, so)
			} else {
				fast = fastPool.RunFrom(cp, prog, fastAlg, so)
			}
			so.Tracer, so.DisableBatching = slowLog, true
			slow := slowPool.Run(prog, slowAlg, so)
			if d := diffResults(fast, slow); d != "" {
				return fmt.Errorf("crosscheck: %s: %s seed %d: traced checkpointed run diverged from traced slow loop: %s", name, algName, so.Seed, d)
			}
			if d := diffDecisions(fastLog.recs, slowLog.recs); d != "" {
				return fmt.Errorf("crosscheck: %s: %s seed %d: batched engine showed its tracer a different schedule than the slow loop: %s", name, algName, so.Seed, d)
			}
			if fastLog.rankErr != "" || slowLog.rankErr != "" {
				return fmt.Errorf("crosscheck: %s: %s seed %d: batched engine: %q, slow loop: %q", name, algName, so.Seed, fastLog.rankErr, slowLog.rankErr)
			}
		}
	}
	return nil
}

// diffTraces names the first mismatch between two recorded event streams.
func diffTraces(a, b []sched.Event) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}
