// Package crosscheck is the framework's differential and statistical
// oracle: it hunts for bugs in the *testing framework itself* rather than
// in programs under test. DESIGN.md promises that on the deterministic
// substrate "any failure or replay divergence is a framework bug"; this
// package is the harness that earns that claim.
//
// Three layers of checking, each against an independent ground truth:
//
//   - Legality (differential): for a generated program, systematic.Explore
//     enumerates the exact set of feasible interleaving fingerprints and
//     the exact set of reachable failures. Every randomized algorithm is
//     then run for many seeds, and every fingerprint it produces must be a
//     member of the enumerated set, and every failure it reports must be a
//     failure enumeration also reached. A sampler that invents an
//     interleaving (scheduler bug), misses a synchronization edge
//     (substrate bug), or reports a phantom deadlock (blocking-detection
//     bug) fails here.
//
//   - Replay and execution-identity: each checked schedule is recorded via
//     internal/replay and strictly replayed — the replay must be bit-exact
//     (fingerprint, Δ-fingerprint, behaviour, failure) with zero diagnosed
//     divergence — and re-executed on a warm sched.Pool and compared
//     field-for-field against the one-shot run, and once more into a
//     caller-owned Result (Pool.RunInto) that earlier schedules have
//     written, which must equal the pool's own. Parallel sessions
//     (runner.Config.Workers) are checked to be byte-identical to the
//     sequential loop, and a checkpointed, batched session (Pool.RunPrefix
//     / Pool.RunFrom on the fast engine) is checked byte-identical —
//     traces included — to the verbatim slow scheduling loop, as is the
//     Decision stream each of the two shows an attached sched.Tracer
//     (checkpoint.go in this package).
//
//   - Distribution (statistical): URW's sampled interleaving distribution
//     is chi-square-tested against the enumerated uniform, and SURW's
//     interleaving entropy is checked to dominate a plain random walk's.
//     MutationSensitivity seeds deliberately broken sampler variants and
//     requires the chi-square gate to reject every one of them, proving
//     the statistical layer has teeth.
//
// All entry points take explicit seeds, so CI runs are deterministic.
package crosscheck

import (
	"fmt"
	"reflect"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/progfuzz"
	"surw/internal/replay"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/systematic"
)

// Algorithms is the set of sampler names verified by CheckProgram, per the
// paper's evaluation roster.
func Algorithms() []string {
	return []string{"SURW", "URW", "POS", "RAPOS", "PCT-3", "RW", "N-U", "N-S"}
}

// Options bounds one CheckProgram run.
type Options struct {
	// Schedules is the number of randomized schedules checked per
	// algorithm (default 20).
	Schedules int
	// MaxSchedules caps the exhaustive enumeration (default 300,000).
	MaxSchedules int
	// Seed derives every per-schedule seed.
	Seed int64
	// Algorithms overrides the checked sampler set (default Algorithms()).
	Algorithms []string
	// AllowPartial skips the set-membership check (not the replay and
	// identity checks) when the enumeration budget runs out instead of
	// failing. Used by the fuzz target, where a mutated seed can produce a
	// program too large to enumerate.
	AllowPartial bool
	// SkipParallel skips the runner worker-identity check (it spawns
	// goroutines, which the fuzz engine's per-input budget dislikes).
	SkipParallel bool
}

func (o Options) normalized() Options {
	if o.Schedules <= 0 {
		o.Schedules = 20
	}
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 300_000
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = Algorithms()
	}
	return o
}

// Report summarizes one successful CheckProgram run.
type Report struct {
	Program       string
	Enumerated    int  // schedules the oracle executed
	Interleavings int  // distinct feasible fingerprints
	Classes       int  // distinct commutation classes (≤ Interleavings)
	Deadlocky     bool // the oracle reached a deadlock
	Checked       int  // randomized schedules verified across algorithms
}

// CheckProgram cross-checks every algorithm against the exhaustively
// enumerated schedule space of prog. expectDeadlock is the generator's
// computed oracle: the enumeration must reach a deadlock iff it is set,
// and must reach no other failure kind either way.
func CheckProgram(name string, prog func(*sched.Thread), expectDeadlock bool, opts Options) (*Report, error) {
	opts = opts.normalized()
	oracle := systematic.Explore(prog, systematic.Options{MaxSchedules: opts.MaxSchedules})
	if !oracle.Exhausted && !opts.AllowPartial {
		return nil, fmt.Errorf("crosscheck: %s: schedule space exceeds %d schedules; shrink the program or raise MaxSchedules", name, opts.MaxSchedules)
	}
	rep := &Report{
		Program:       name,
		Enumerated:    oracle.Schedules,
		Interleavings: len(oracle.Interleavings),
		Deadlocky:     oracle.Bugs["deadlock"] > 0,
	}
	if oracle.Exhausted {
		if expectDeadlock && oracle.Bugs["deadlock"] == 0 {
			return nil, fmt.Errorf("crosscheck: %s: generator oracle expects a deadlock but enumeration of %d schedules found none", name, oracle.Schedules)
		}
		for id := range oracle.Bugs {
			if !expectDeadlock || id != "deadlock" {
				return nil, fmt.Errorf("crosscheck: %s: enumeration reached unexpected failure %q (generator oracle promises %s)", name, id, describeExpectation(expectDeadlock))
			}
		}
	}

	// A single profiling census feeds every estimate-driven algorithm;
	// Δ = Γ keeps SURW's selection deterministic per program.
	prof, err := profile.Collect(prog, profile.Options{Base: sched.Base{Seed: opts.Seed ^ 0x5eed}})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: %s: profiling: %w", name, err)
	}
	info := prof.Instantiate(prof.SelectAll())

	pool := sched.NewPool()
	var own sched.Result // caller-owned storage, written by every schedule below
	for _, algName := range opts.Algorithms {
		alg, err := core.New(algName)
		if err != nil {
			return nil, fmt.Errorf("crosscheck: %s: %w", name, err)
		}
		for i := 0; i < opts.Schedules; i++ {
			so := sched.Options{Base: sched.Base{Seed: opts.Seed + int64(i)*7919 + 1}, Info: info}
			res, rec := replay.Record(prog, alg, so)
			if res.Truncated {
				return nil, fmt.Errorf("crosscheck: %s: %s seed %d: schedule truncated at %d steps", name, algName, so.Seed, res.Steps)
			}
			if oracle.Exhausted {
				if !oracle.Interleavings[res.InterleavingHash] {
					return nil, fmt.Errorf("crosscheck: %s: %s seed %d produced fingerprint %#x outside the %d enumerated interleavings — scheduler or substrate bug", name, algName, so.Seed, res.InterleavingHash, len(oracle.Interleavings))
				}
				if res.Buggy() && oracle.Bugs[res.BugID()] == 0 {
					return nil, fmt.Errorf("crosscheck: %s: %s seed %d reported failure %q that exhaustive enumeration never reached", name, algName, so.Seed, res.BugID())
				}
			}
			replayed, rerr := replay.ReplayStrict(prog, rec, so)
			if rerr != nil {
				return nil, fmt.Errorf("crosscheck: %s: %s seed %d: %w", name, algName, so.Seed, rerr)
			}
			if d := diffResults(res, replayed); d != "" {
				return nil, fmt.Errorf("crosscheck: %s: %s seed %d: replay diverged: %s", name, algName, so.Seed, d)
			}
			pooled := pool.Run(prog, alg, so)
			if d := diffResults(res, pooled); d != "" {
				return nil, fmt.Errorf("crosscheck: %s: %s seed %d: pooled run diverged: %s", name, algName, so.Seed, d)
			}
			// The caller-owned form: into storage that still holds an
			// earlier schedule's outcome — first this schedule traced, so a
			// Trace, ThreadPaths and (when it fails) a Failure are there to
			// leak — it is Run's Result field for field.
			traced := so
			traced.RecordTrace = true
			pool.RunInto(&own, prog, alg, traced)
			pool.RunInto(&own, prog, alg, so)
			if !reflect.DeepEqual(&own, pooled) {
				return nil, fmt.Errorf("crosscheck: %s: %s seed %d: RunInto wrote %s, Run returned %s", name, algName, so.Seed, describeResult(&own), describeResult(pooled))
			}
			rep.Checked++
		}
	}

	if err := checkpointIdentity(name, prog, info, opts); err != nil {
		return nil, err
	}
	if err := decisionIdentity(name, prog, info, opts); err != nil {
		return nil, err
	}

	// Class-equivalence oracle: the ClassHash partition of the enumerated
	// schedule space must coincide with the brute-force happens-before
	// partition (classes.go).
	nClasses, err := classEquivalence(name, prog, opts)
	if err != nil {
		return nil, err
	}
	rep.Classes = nClasses
	if oracle.Exhausted && nClasses > rep.Interleavings {
		return nil, fmt.Errorf("crosscheck: %s: %d commutation classes exceed %d interleavings — the class fingerprint split an interleaving", name, nClasses, rep.Interleavings)
	}

	if !opts.SkipParallel {
		if err := parallelIdentity(name, prog, opts); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func describeExpectation(deadlock bool) string {
	if deadlock {
		return "deadlock only"
	}
	return "no failure"
}

// diffResults compares the observable fields of two schedules of the same
// (program, algorithm, seed) and names the first mismatch.
func diffResults(a, b *sched.Result) string {
	switch {
	case a.InterleavingHash != b.InterleavingHash:
		return fmt.Sprintf("fingerprint %#x vs %#x", a.InterleavingHash, b.InterleavingHash)
	case a.ClassHash != b.ClassHash:
		return fmt.Sprintf("class fingerprint %#x vs %#x", a.ClassHash, b.ClassHash)
	case a.DeltaHash != b.DeltaHash:
		return fmt.Sprintf("Δ-fingerprint %#x vs %#x", a.DeltaHash, b.DeltaHash)
	case a.Behavior != b.Behavior:
		return fmt.Sprintf("behaviour %q vs %q", a.Behavior, b.Behavior)
	case a.Steps != b.Steps:
		return fmt.Sprintf("steps %d vs %d", a.Steps, b.Steps)
	case a.Truncated != b.Truncated:
		return fmt.Sprintf("truncated %v vs %v", a.Truncated, b.Truncated)
	case a.BugID() != b.BugID():
		return fmt.Sprintf("bug %q vs %q", a.BugID(), b.BugID())
	}
	return ""
}

// describeResult prints every field of r, the Failure by value.
func describeResult(r *sched.Result) string {
	if r.Failure == nil {
		return fmt.Sprintf("%+v", *r)
	}
	return fmt.Sprintf("%+v with Failure %+v", *r, *r.Failure)
}

// parallelIdentity runs the same session batch sequentially and fanned over
// workers and requires byte-identical results (the confinement argument of
// runner/parallel.go, checked end to end).
func parallelIdentity(name string, prog func(*sched.Thread), opts Options) error {
	tgt := runner.Target{Name: name, Prog: prog}
	cfg := runner.Config{
		Sessions: 3,
		Limit:    opts.Schedules,
		Seed:     opts.Seed + 101,
		Coverage: true, CoverageEvery: 5,
	}
	cfg.Workers = 1
	seq, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		return fmt.Errorf("crosscheck: %s: sequential runner: %w", name, err)
	}
	cfg.Workers = 3
	par, err := runner.RunTarget(tgt, "URW", cfg)
	if err != nil {
		return fmt.Errorf("crosscheck: %s: parallel runner: %w", name, err)
	}
	if !seq.Equal(par) {
		return fmt.Errorf("crosscheck: %s: parallel sessions (workers=3) diverged from the sequential loop", name)
	}
	return nil
}

// genConfig keeps generated programs small enough for exhaustive
// enumeration while still covering every synchronization object.
// MinThreads forces real concurrency (a sequential program has exactly one
// interleaving and checks nothing); MaxOps 3 keeps the worst-case free
// interleaving space within the enumeration budget.
var genConfig = progfuzz.Config{
	MaxThreads: 3,
	MinThreads: 3,
	MaxOps:     3,
	Vars:       2,
	Mutexes:    2,
	SpawnDepth: 1,
	Channels:   2,
	Semaphores: 1,
	Gates:      1,
}

// genSyncConfig caps the sync-object grammar at two threads: its channel
// sends and semaphore Vs never block (capacity covers production), so a
// third concurrent thread multiplies the free interleaving space past any
// practical enumeration budget, while two threads stay under ~10^5
// schedules for every seed measured.
var genSyncConfig = progfuzz.Config{
	MaxThreads: 2,
	MinThreads: 2,
	MaxOps:     3,
	Vars:       2,
	Mutexes:    2,
	SpawnDepth: 1,
	Channels:   2,
	Semaphores: 1,
	Gates:      1,
}

// CheckGenerated cross-checks the three generator grammars at one seed:
// the mutex grammar (Gen), the full synchronization-object grammar
// (GenSync), and the deadlock-capable grammar (GenDeadlock) with its
// computed expected-deadlock oracle.
func CheckGenerated(seed int64, opts Options) ([]*Report, error) {
	var reps []*Report
	check := func(name string, prog func(*sched.Thread), expectDeadlock bool) error {
		rep, err := CheckProgram(fmt.Sprintf("%s(seed=%d)", name, seed), prog, expectDeadlock, opts)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		return nil
	}
	if err := check("gen", progfuzz.Gen(seed, genConfig).Prog(), false); err != nil {
		return reps, err
	}
	if err := check("gensync", progfuzz.GenSync(seed, genSyncConfig).Prog(), false); err != nil {
		return reps, err
	}
	dl, expect := progfuzz.GenDeadlock(seed, genConfig)
	if err := check("gendeadlock", dl.Prog(), expect); err != nil {
		return reps, err
	}
	return reps, nil
}
