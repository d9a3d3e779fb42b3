// Package surwsync is a drop-in stand-in for the sync package and for
// channels, letting real Go code — code written against sync.Mutex,
// sync.WaitGroup, go statements, and chan operations — run under surw's
// controlled scheduler without threading a *surw.Thread through every
// call.
//
// The package has two modes, chosen per call site at runtime:
//
//   - Under a controlled session (the code was started through
//     [Program] and its goroutines through [Go]), every primitive
//     resolves the virtual thread bound to the calling goroutine and
//     turns each operation into a scheduled event on a scheduler-owned
//     object. The schedule space of the program becomes explorable by
//     SURW and the baseline algorithms, and any failure is replayable
//     by seed.
//
//   - Outside a session (ordinary production or `go test` execution),
//     every primitive transparently delegates to the real sync type or
//     a native channel. The only cost on this path is one atomic load
//     per operation (two for a Chan, whose native channel is made on its
//     first use) when no controlled session exists anywhere in the
//     process.
//
// Porting is mechanical — `surw port` automates it for whole packages:
//
//	sync.Mutex      -> surwsync.Mutex      (zero value ready, as stdlib)
//	sync.RWMutex    -> surwsync.RWMutex
//	sync.WaitGroup  -> surwsync.WaitGroup
//	sync.Once       -> surwsync.Once
//	go f()          -> surwsync.Go(func() { f() })
//	make(chan T, n) -> surwsync.NewChan[T](n)
//	ch <- v         -> ch.Send(v)
//	v := <-ch       -> v := ch.Recv1()
//	v, ok := <-ch   -> v, ok := ch.Recv()
//	close(ch)       -> ch.Close()
//	runtime.Gosched -> surwsync.Gosched
//
// A shimmed program is hooked to the tester through Program:
//
//	report, err := surw.Test(surwsync.Program(func() {
//	    p := pool.New(2)        // ordinary Go code using surwsync inside
//	    p.Submit(job)
//	    p.Close()
//	}), surw.Options{Schedules: 2000})
//
// # Rules under a session
//
// Every goroutine of the program under test must be spawned through
// [Go]. A raw go statement creates a goroutine with no virtual-thread
// binding: its primitive operations fall back to the real
// implementations and are invisible to (and unserialized with) the
// scheduler. For the same reason a shimmed primitive must not be shared
// between code under a session and unrelated goroutines outside it.
//
// Zero-value primitives are backed lazily: the first operation of each
// schedule creates the scheduler object. State therefore resets between
// schedules — exactly right for a program that is itself re-run from
// scratch each schedule, but a reason not to smuggle state across
// schedules through a package-level primitive. Lazy creation also means
// the auto-assigned object names ("surwsync.Mutex#3") depend on which
// thread's first operation created the object, so under a
// schedule-dependent first touch the same primitive may be named
// differently in different schedules; name-keyed Δ selections for
// shimmed programs should prefer channel objects created eagerly by
// [NewChan] from a deterministic constructor.
package surwsync
