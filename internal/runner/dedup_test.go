package runner

import (
	"sync/atomic"
	"testing"
)

// recordingFilter implements PrefixClassFilter: it remembers every
// queried prefix class and answers a fixed verdict.
type recordingFilter struct {
	saturated bool
	queries   atomic.Int64
	last      atomic.Uint64
}

func (f *recordingFilter) SaturatedPrefix(class uint64) bool {
	f.queries.Add(1)
	f.last.Store(class)
	return f.saturated
}

// TestPrefixFilterAbandonsSaturatedSessions pins the early-abandon
// contract: a filter that calls every prefix saturated stops each session
// after its first schedule (schedule 0 always counts — its result is what
// produced the verdict), while a never-saturated filter leaves sessions
// byte-identical to a filter-less run.
func TestPrefixFilterAbandonsSaturatedSessions(t *testing.T) {
	base := Config{Sessions: 3, Limit: 50, Seed: 9, Coverage: true}

	ref, err := RunTarget(cleanTarget(), "SURW", base)
	if err != nil {
		t.Fatal(err)
	}

	open := &recordingFilter{saturated: false}
	cfgOpen := base
	cfgOpen.PrefixFilter = open
	same, err := RunTarget(cleanTarget(), "SURW", cfgOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(same) {
		t.Fatal("non-saturating filter changed the run")
	}
	if open.queries.Load() != int64(base.Sessions) {
		t.Fatalf("filter queried %d times, want once per session (%d)", open.queries.Load(), base.Sessions)
	}

	shut := &recordingFilter{saturated: true}
	cfgShut := base
	cfgShut.PrefixFilter = shut
	res, err := RunTarget(cleanTarget(), "SURW", cfgShut)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Sessions {
		if s.Schedules != 1 {
			t.Fatalf("session %d ran %d schedules after a saturated verdict, want 1", i, s.Schedules)
		}
		if s.Cov == nil || len(s.Cov.Classes) != 1 {
			t.Fatalf("session %d: abandoned session must still tally its first schedule", i)
		}
	}
}
