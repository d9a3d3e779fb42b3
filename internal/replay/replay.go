// Package replay records, replays, and minimizes schedules. A Recording
// captures the choice an algorithm made at every consulted decision point
// (single-enabled steps need no choice and are omitted); replaying a
// recording reproduces the schedule exactly on the same deterministic
// program. Minimize shrinks a failing recording by removing preemptive
// context switches while preserving the failure — the paper's replayable-
// schedule property turned into a debugging aid.
package replay

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"surw/internal/sched"
)

// Recording is the sequence of choices (indices into the enabled set) at
// each consulted decision.
type Recording struct {
	Choices []int
}

// String serializes the recording compactly ("3:0,2,1,...").
func (r Recording) String() string {
	parts := make([]string, len(r.Choices))
	for i, c := range r.Choices {
		parts[i] = strconv.Itoa(c)
	}
	return strconv.Itoa(len(r.Choices)) + ":" + strings.Join(parts, ",")
}

// Parse deserializes a Recording produced by String.
func Parse(s string) (Recording, error) {
	head, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Recording{}, fmt.Errorf("replay: missing length prefix in %q", s)
	}
	n, err := strconv.Atoi(head)
	if err != nil {
		return Recording{}, fmt.Errorf("replay: bad length in %q: %v", s, err)
	}
	if n == 0 && rest == "" {
		return Recording{}, nil
	}
	parts := strings.Split(rest, ",")
	if len(parts) != n {
		return Recording{}, fmt.Errorf("replay: length %d != %d entries", n, len(parts))
	}
	rec := Recording{Choices: make([]int, n)}
	for i, p := range parts {
		c, err := strconv.Atoi(p)
		if err != nil || c < 0 {
			return Recording{}, fmt.Errorf("replay: bad choice %q", p)
		}
		rec.Choices[i] = c
	}
	return rec, nil
}

// Recorder is a sched.Tracer that records the choice of every consulted
// decision as the schedule runs, so the algorithm it watches decides on the
// engine's paths as it does unwatched. It shows every call to Tracer after
// itself; a nil Tracer is none.
type Recorder struct {
	Tracer  sched.Tracer
	choices []int
}

// BeginSchedule implements sched.Tracer.
func (r *Recorder) BeginSchedule(alg string) {
	r.choices = r.choices[:0]
	if r.Tracer != nil {
		r.Tracer.BeginSchedule(alg)
	}
}

// Decide implements sched.Tracer: a consulted decision records the chosen
// thread's index in the enabled set it was drawn from.
func (r *Recorder) Decide(d sched.Decision, st *sched.State) {
	if d.Consulted {
		r.choices = append(r.choices, st.EnabledRank(d.Chosen))
	}
	if r.Tracer != nil {
		r.Tracer.Decide(d, st)
	}
}

// EndSchedule implements sched.Tracer.
func (r *Recorder) EndSchedule(res *sched.Result) {
	if r.Tracer != nil {
		r.Tracer.EndSchedule(res)
	}
}

// Recording returns the choices of the last completed schedule.
func (r *Recorder) Recording() Recording {
	return Recording{Choices: append([]int(nil), r.choices...)}
}

// Player replays a Recording. When the recording and the program disagree
// — a recording that runs out before the program stops consulting
// decisions (a truncated trace, or one Minimize cut short on purpose), or
// a recorded choice outside the enabled set — it continues
// non-preemptively (the previous thread, else the first enabled one), so
// the schedule still terminates, and keeps the first such divergence for
// Err.
type Player struct {
	Rec  Recording
	step int
	prev sched.ThreadID
	err  error
}

// NewPlayer replays rec.
func NewPlayer(rec Recording) *Player { return &Player{Rec: rec} }

// Name implements sched.Algorithm.
func (p *Player) Name() string { return "replay" }

// Begin implements sched.Algorithm.
func (p *Player) Begin(*sched.ProgramInfo, *rand.Rand) {
	p.step = 0
	p.prev = -1
	p.err = nil
}

// Next implements sched.Algorithm.
func (p *Player) Next(st *sched.State) sched.ThreadID {
	e := st.Enabled()
	step := p.step
	p.step++
	if step < len(p.Rec.Choices) && p.Rec.Choices[step] < len(e) {
		return e[p.Rec.Choices[step]]
	}
	switch {
	case p.err != nil: // keep the first
	case step >= len(p.Rec.Choices):
		p.err = fmt.Errorf("replay: recording truncated: program consulted decision %d but the recording holds only %d choices; re-record with the same program, ProgSeed, and MaxSteps",
			step, len(p.Rec.Choices))
	default:
		p.err = fmt.Errorf("replay: divergence at decision %d (schedule step %d): recorded choice %d but only %d threads enabled; the program or options differ from the recording run",
			step, st.Step(), p.Rec.Choices[step], len(e))
	}
	for _, tid := range e {
		if tid == p.prev {
			return tid
		}
	}
	return e[0]
}

// Observe implements sched.Algorithm.
func (p *Player) Observe(ev sched.Event, _ *sched.State) { p.prev = ev.TID }

// Err returns the first divergence diagnosed during the last schedule, or
// nil if the recording was followed exactly. Call after the schedule ends;
// leftover recorded choices the program never consulted also count: the
// replay ran against a different program, prog-seed, or step budget than
// the recording run.
func (p *Player) Err() error {
	if p.err == nil && p.step < len(p.Rec.Choices) {
		return fmt.Errorf("replay: recording holds %d choices but the program consulted only %d decisions; the program or options differ from the recording run",
			len(p.Rec.Choices), p.step)
	}
	return p.err
}

// Record runs one schedule of prog under alg with a Recorder in front of
// opts.Tracer and returns the result with its recording.
func Record(prog func(*sched.Thread), alg sched.Algorithm, opts sched.Options) (*sched.Result, Recording) {
	rec := &Recorder{Tracer: opts.Tracer}
	opts.Tracer = rec
	res := sched.Run(prog, alg, opts)
	return res, rec.Recording()
}

// Replay re-executes a recording and returns its result. opts.Seed is
// irrelevant (the player consumes no randomness); ProgSeed and MaxSteps
// must match the recording run.
func Replay(prog func(*sched.Thread), rec Recording, opts sched.Options) *sched.Result {
	return sched.Run(prog, NewPlayer(rec), opts)
}

// ReplayStrict re-executes a recording and returns its result, plus an
// actionable error when the program did not consult exactly the recorded
// decisions (truncated or divergent trace). The result is still returned on
// error — the schedule ran to completion under the fallback policy — so
// callers can inspect how far the replay got.
func ReplayStrict(prog func(*sched.Thread), rec Recording, opts sched.Options) (*sched.Result, error) {
	p := NewPlayer(rec)
	res := sched.Run(prog, p, opts)
	return res, p.Err()
}

// Minimize greedily simplifies a failing recording while preserving its
// bug ID: for each decision, it tries replacing the recorded choice with
// the non-preemptive one (marked by dropping the entry and every later
// one, letting the player's continuation take over) and with choice 0,
// keeping any change under which the failure persists. The result
// typically has far fewer preemptions, making the failing interleaving
// readable. maxAttempts bounds replay executions (0 = 10,000).
func Minimize(prog func(*sched.Thread), rec Recording, bugID string, opts sched.Options, maxAttempts int) (Recording, int) {
	if maxAttempts <= 0 {
		maxAttempts = 10_000
	}
	attempts := 0
	fails := func(r Recording) bool {
		if attempts >= maxAttempts {
			return false
		}
		attempts++
		res := Replay(prog, r, opts)
		return res.Buggy() && res.Failure.BugID == bugID
	}
	cur := Recording{Choices: append([]int(nil), rec.Choices...)}

	// Pass 1: truncate the tail — everything after the failure is noise,
	// and often the bug still fires with the continuation policy replacing
	// the last recorded choices.
	lo, hi := 0, len(cur.Choices)
	for lo < hi {
		mid := (lo + hi) / 2
		if fails(Recording{Choices: cur.Choices[:mid]}) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(cur.Choices) && fails(Recording{Choices: cur.Choices[:lo]}) {
		cur.Choices = append([]int(nil), cur.Choices[:lo]...)
	}

	// Pass 2: flatten individual choices to 0 (the least-preemptive
	// deterministic option) where the failure persists.
	for i := range cur.Choices {
		if cur.Choices[i] == 0 {
			continue
		}
		old := cur.Choices[i]
		cur.Choices[i] = 0
		if !fails(cur) {
			cur.Choices[i] = old
		}
	}
	return cur, attempts
}
