package workpool

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 9} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("item-%d", i*7), nil }
	seq, err := Map(1, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(8, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("diverged at %d: %q vs %q", i, seq[i], par[i])
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	fn := func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errB
		case 1:
			return 0, errA
		}
		return i, nil
	}
	for _, workers := range []int{1, 4} {
		if _, err := Map(workers, 10, fn); !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestMapRunsEveryItemOnce(t *testing.T) {
	var ran [257]atomic.Int32
	_, err := Map(16, len(ran), func(i int) (struct{}, error) {
		ran[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("item %d ran %d times", i, n)
		}
	}
}

func TestMapEmptyAndSequentialEarlyStop(t *testing.T) {
	if got, err := Map(4, 0, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	// The one-worker path preserves the legacy stop-at-first-error loop.
	calls := 0
	_, err := Map(1, 10, func(i int) (int, error) {
		calls++
		if i == 2 {
			return 0, errors.New("stop")
		}
		return 0, nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("sequential early stop: err=%v calls=%d", err, calls)
	}
}

// TestMapReportsAnItemThatNeverReturned: an fn that ends its worker with
// runtime.Goexit leaves its item without a result, and a pool whose workers
// all exit leaves items unclaimed; each is an error, lowest index first.
func TestMapReportsAnItemThatNeverReturned(t *testing.T) {
	errA := errors.New("a")
	cases := []struct {
		name    string
		exits   func(i int) bool
		failAt  int // an item returning errA, -1 for none
		wantErr error
		wantMsg string
	}{
		{"one worker exits", func(i int) bool { return i == 3 }, -1, errNoReturn, "workpool: item 3: "},
		{"a lower item's error wins", func(i int) bool { return i == 3 }, 1, errA, "a"},
		{"every worker exits", func(int) bool { return true }, -1, errNoReturn, "workpool: item 0: "},
	}
	for _, c := range cases {
		got, err := Map(2, 8, func(i int) (int, error) {
			if c.exits(i) {
				runtime.Goexit()
			}
			if i == c.failAt {
				return 0, errA
			}
			return i, nil
		})
		if got != nil || !errors.Is(err, c.wantErr) || !strings.HasPrefix(err.Error(), c.wantMsg) {
			t.Fatalf("%s: got %v, %v; want no results and %q…", c.name, got, err, c.wantMsg)
		}
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(0) != runtime.GOMAXPROCS(0) || Normalize(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive should resolve to GOMAXPROCS")
	}
	if Normalize(1) != 1 || Normalize(7) != 7 {
		t.Fatal("positive values should pass through")
	}
}
