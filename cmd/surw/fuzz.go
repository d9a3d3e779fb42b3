package main

import (
	"context"
	"fmt"
	"io"

	"surw/internal/crosscheck"
)

// fuzzCmd is the framework's self-check (internal/crosscheck): the
// statistical mutation-sensitivity self-test once, then the differential
// check of every generator grammar at -seeds generator seeds from -seed
// on. The generated programs keep their promise by construction, so any
// failure, truncation, replay divergence or pooled/parallel mismatch it
// reports is a bug in the scheduler, an algorithm or a generator, and
// exits 1.
//
// Usage:
//
//	surw fuzz [-seed S] [-seeds N] [-pprof ADDR]
func fuzzCmd(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := newCommand("fuzz", stdout, stderr)
	c.shared("seed", "pprof", "version")
	seeds := c.fs.Int("seeds", 10, "generator seeds checked, from -seed on, each under every grammar")
	return c.run(args, func() error {
		if err := selfCheck(stdout, *seeds, c.seed); err != nil {
			return fmt.Errorf("FRAMEWORK BUG: %w", err)
		}
		return nil
	})
}

// selfCheck runs the two checks, printing a report of each to w.
func selfCheck(w io.Writer, seeds int, seed int64) error {
	fmt.Fprintln(w, "crosscheck: mutation-sensitivity self-test (bitshift, 252 classes)")
	rep, err := crosscheck.MutationSensitivity(0, seed, 0.005)
	if rep != nil {
		fmt.Fprint(w, rep)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "crosscheck: differential sweep over generator seeds %d..%d, every grammar\n", seed, seed+int64(seeds)-1)
	checked := 0
	for s := seed; s < seed+int64(seeds); s++ {
		// AllowPartial: over arbitrary seeds the occasional program outgrows
		// the enumeration budget; it still gets the failure, replay and
		// identity checks, just not set membership.
		reps, err := crosscheck.CheckGenerated(s, crosscheck.Options{Seed: s, AllowPartial: true})
		for _, r := range reps {
			fmt.Fprintf(w, "  %-24s enumerated %6d schedules, %5d interleavings, %3d sampled schedules verified (deadlocky=%v)\n",
				r.Program, r.Enumerated, r.Interleavings, r.Checked, r.Deadlocky)
			checked += r.Checked
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "crosscheck: OK — %d sampled schedules legal, replayable, and pool/parallel-identical\n", checked)
	return nil
}
