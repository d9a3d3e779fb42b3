package runner

import "surw/internal/sched"

// RunUnbatched runs the session's schedule i again, from the start and on
// the slow scheduling loop (sched.Options.DisableBatching): the reference
// the batched engine and its prefix checkpoint must equal, schedule for
// schedule.
func (d *Driver) RunUnbatched(i int) *sched.Result {
	opts := d.options(i)
	opts.DisableBatching = true
	return d.pool.Run(d.tgt.Prog, d.alg, opts)
}
