// Package progfuzz generates small random — but well-formed — concurrent
// programs for robustness testing, in three grammars:
//
//   - Gen: the mutex/shared-variable grammar. Locks are acquired in a
//     global order (so programs cannot deadlock), every spawned thread is
//     joined, and there are no assertions.
//   - GenSync: the extended grammar adds channels, semaphores, waitgroups,
//     and condvar-backed gates. Deadlock freedom holds by a phased
//     discipline: every thread performs its producing operations (sends,
//     semaphore Vs, waitgroup Dones, gate opens — all non-blocking given
//     ample channel capacity) and its spawns before any consuming operation
//     (receives, semaphore Ps, waitgroup/gate waits), and per resource the
//     planned production covers the planned consumption. In any globally
//     blocked state all live threads would be past their produce phase, so
//     every consume would have a token available and every sleeping condvar
//     waiter would have been woken by the (already executed) producer —
//     a contradiction; see the crosscheck oracle tests, which verify this
//     argument exhaustively on small instances.
//   - GenDeadlock: the intentionally deadlock-capable grammar. Contender
//     threads each nest one two-lock critical section with a random lock
//     order; deadlock is reachable if and only if the per-thread lock-order
//     edges form a directed cycle, and that expectation is computed and
//     returned alongside the program as an oracle.
//
// All grammars are deterministic given their seed. Any failure (other than
// an expected deadlock), truncation, or nondeterminism an algorithm
// exhibits on a generated program is therefore a bug in the scheduler or
// the algorithm, not in the program.
package progfuzz

import (
	"fmt"
	"math/rand"

	"surw/internal/sched"
)

// Config bounds the generated programs.
type Config struct {
	// MaxThreads bounds the total number of spawned threads (default 4).
	MaxThreads int
	// MaxOps bounds the straight-line operations per thread (default 8).
	MaxOps int
	// Vars is the number of shared variables (default 3).
	Vars int
	// Mutexes is the number of mutexes (default 2).
	Mutexes int
	// SpawnDepth bounds nesting of spawns (default 2).
	SpawnDepth int
	// MinThreads forces at least this many threads (root included) by
	// appending spawns of extra leaf children to the root plan when the
	// grammar rolled fewer. Zero keeps the purely probabilistic spawning;
	// differential harnesses set it so generated programs are reliably
	// concurrent rather than vacuously sequential.
	MinThreads int

	// Channels, Semaphores, and Gates size the sync-object pools of the
	// GenSync grammar (defaults 2, 1, 1; ignored by Gen). A gate is a
	// condvar-protected monotonic flag: open-once, wait-until-open.
	Channels   int
	Semaphores int
	Gates      int
	// NoWaitGroup drops the waitgroup from the GenSync grammar.
	NoWaitGroup bool
}

func (c Config) normalized() Config {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 4
	}
	if c.MaxOps <= 0 {
		c.MaxOps = 8
	}
	if c.Vars <= 0 {
		c.Vars = 3
	}
	if c.Mutexes <= 0 {
		c.Mutexes = 2
	}
	if c.SpawnDepth <= 0 {
		c.SpawnDepth = 2
	}
	if c.Channels <= 0 {
		c.Channels = 2
	}
	if c.Semaphores <= 0 {
		c.Semaphores = 1
	}
	if c.Gates <= 0 {
		c.Gates = 1
	}
	if c.MinThreads > c.MaxThreads {
		c.MinThreads = c.MaxThreads
	}
	return c
}

// op is one generated operation.
type op struct {
	kind  opKind
	arg   int   // var/mutex/channel/sem/gate index, spawn plan, or wg delta
	dst   int   // send value, or destination var index for recv
	locks []int // for critical sections: mutex indices in acquisition order
	body  []op  // ops inside the critical section
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opAdd
	opYield
	opCS       // critical section: lock(s) in order, body, unlock in reverse
	opSpawn    // spawn the thread plan in arg
	opSend     // send dst on channel arg (producing; never blocks: ample cap)
	opRecv     // recv from channel arg into var dst (consuming; may block)
	opSemV     // V on semaphore arg (producing)
	opSemP     // P on semaphore arg (consuming; may block)
	opWgAdd    // Add(arg) on the waitgroup (root, before all spawns)
	opWgDone   // Done on the waitgroup (producing)
	opWgWait   // Wait on the waitgroup (consuming; may block)
	opGateOpen // open gate arg: lock, set flag, broadcast, unlock (producing)
	opGateWait // wait for gate arg: lock, wait while unset, unlock (consuming)
)

// producing reports whether k is a non-blocking produce-phase op of the
// GenSync grammar (used by tests to validate the phase discipline).
func (k opKind) producing() bool {
	switch k {
	case opRecv, opSemP, opWgWait, opGateWait:
		return false
	}
	return true
}

// Program is a generated program: a tree of thread plans.
type Program struct {
	cfg     Config
	seed    int64
	threads [][]op // plan 0 is the root thread
	spawns  int

	chans   int
	chanCap []int // per channel: total sends (so sends never block)
	sems    int
	gates   int
	useWG   bool
}

// Gen generates a program from a seed.
func Gen(seed int64, cfg Config) *Program {
	cfg = cfg.normalized()
	p := &Program{cfg: cfg, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	p.threads = append(p.threads, nil) // root, filled below
	root := p.genOps(rng, 0, cfg.SpawnDepth)
	for p.spawns+1 < cfg.MinThreads {
		p.spawns++
		child := len(p.threads)
		p.threads = append(p.threads, nil)
		p.threads[child] = p.genOps(rng, child, 0)
		// Prepend so the root's own ops run concurrently with the forced
		// child; appending would leave the root nothing left to interleave.
		root = append([]op{{kind: opSpawn, arg: child}}, root...)
	}
	p.threads[0] = root
	return p
}

// genOps builds one thread's op list, possibly planning child threads.
func (p *Program) genOps(rng *rand.Rand, planIdx, depth int) []op {
	n := 1 + rng.Intn(p.cfg.MaxOps)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 3:
			ops = append(ops, op{kind: opLoad, arg: rng.Intn(p.cfg.Vars)})
		case k < 5:
			ops = append(ops, op{kind: opStore, arg: rng.Intn(p.cfg.Vars)})
		case k < 7:
			ops = append(ops, op{kind: opAdd, arg: rng.Intn(p.cfg.Vars)})
		case k < 8:
			ops = append(ops, op{kind: opYield})
		case k < 9:
			// Critical section with 1-2 locks acquired in global order.
			nl := 1 + rng.Intn(minInt(2, p.cfg.Mutexes))
			locks := rng.Perm(p.cfg.Mutexes)[:nl]
			sortInts(locks)
			body := []op{{kind: opAdd, arg: rng.Intn(p.cfg.Vars)}}
			if rng.Intn(2) == 0 {
				body = append(body, op{kind: opLoad, arg: rng.Intn(p.cfg.Vars)})
			}
			ops = append(ops, op{kind: opCS, locks: locks, body: body})
		default:
			if depth > 0 && p.spawns+1 < p.cfg.MaxThreads {
				p.spawns++
				child := len(p.threads)
				p.threads = append(p.threads, nil)
				p.threads[child] = p.genOps(rng, child, depth-1)
				ops = append(ops, op{kind: opSpawn, arg: child})
			} else {
				ops = append(ops, op{kind: opYield})
			}
		}
	}
	return ops
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Threads returns the number of thread plans (including the root).
func (p *Program) Threads() int { return len(p.threads) }

// GenSync generates a program from the extended grammar: on top of Gen's
// variables, ordered critical sections, and spawns, threads send on
// buffered channels, V semaphores, open condvar gates, and Done a shared
// waitgroup during their produce phase, then receive, P, and wait during
// their consume phase. Per-resource production covers consumption and
// channel capacity equals total sends, so generated programs cannot
// deadlock (see the package comment for the argument).
func GenSync(seed int64, cfg Config) *Program {
	cfg = cfg.normalized()
	p := &Program{
		cfg:   cfg,
		seed:  seed,
		chans: cfg.Channels,
		sems:  cfg.Semaphores,
		gates: cfg.Gates,
		useWG: !cfg.NoWaitGroup,
	}
	rng := rand.New(rand.NewSource(seed))
	p.threads = append(p.threads, nil)
	p.threads[0] = p.genSyncOps(rng, cfg.SpawnDepth)
	for p.spawns+1 < cfg.MinThreads {
		p.spawns++
		child := len(p.threads)
		p.threads = append(p.threads, nil)
		p.threads[child] = p.genSyncOps(rng, 0)
		// Prepend for maximal overlap with the root's own ops (the wgAdd,
		// when present, is prepended later and still runs first).
		p.threads[0] = append([]op{{kind: opSpawn, arg: child}}, p.threads[0]...)
	}

	// Tally production across every plan.
	sends := make([]int, p.chans)
	vs := make([]int, p.sems)
	opens := make([]int, p.gates)
	dones := 0
	for _, plan := range p.threads {
		for _, o := range plan {
			switch o.kind {
			case opSend:
				sends[o.arg]++
			case opSemV:
				vs[o.arg]++
			case opGateOpen:
				opens[o.arg]++
			case opWgDone:
				dones++
			}
		}
	}
	p.chanCap = make([]int, p.chans)
	for c, n := range sends {
		p.chanCap[c] = maxInt(1, n)
	}

	// Distribute consume ops, never exceeding a resource's production.
	consume := make([][]op, len(p.threads))
	addConsume := func(o op) {
		ti := rng.Intn(len(p.threads))
		consume[ti] = append(consume[ti], o)
	}
	for c, n := range sends {
		for i := rng.Intn(n + 1); i > 0; i-- {
			addConsume(op{kind: opRecv, arg: c, dst: rng.Intn(cfg.Vars)})
		}
	}
	for s, n := range vs {
		for i := rng.Intn(n + 1); i > 0; i-- {
			addConsume(op{kind: opSemP, arg: s})
		}
	}
	for g, n := range opens {
		if n == 0 {
			continue
		}
		for i := rng.Intn(3); i > 0; i-- {
			addConsume(op{kind: opGateWait, arg: g})
		}
	}
	if p.useWG && dones > 0 {
		for i := 1 + rng.Intn(2); i > 0; i-- {
			addConsume(op{kind: opWgWait})
		}
		// The Add precedes every spawn (root runs it first), so no Done can
		// drive the counter negative and Wait unblocks exactly once all
		// planned Dones have run.
		p.threads[0] = append([]op{{kind: opWgAdd, arg: dones}}, p.threads[0]...)
	}
	for ti, ops := range consume {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.threads[ti] = append(p.threads[ti], ops...)
	}
	return p
}

// genSyncOps builds one thread's produce-phase op list (non-blocking ops
// and spawns only; consume ops are distributed afterwards).
func (p *Program) genSyncOps(rng *rand.Rand, depth int) []op {
	n := 1 + rng.Intn(p.cfg.MaxOps)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(14); {
		case k < 2:
			ops = append(ops, op{kind: opLoad, arg: rng.Intn(p.cfg.Vars)})
		case k < 4:
			ops = append(ops, op{kind: opStore, arg: rng.Intn(p.cfg.Vars)})
		case k < 5:
			ops = append(ops, op{kind: opAdd, arg: rng.Intn(p.cfg.Vars)})
		case k < 6:
			ops = append(ops, op{kind: opYield})
		case k < 7:
			nl := 1 + rng.Intn(minInt(2, p.cfg.Mutexes))
			locks := rng.Perm(p.cfg.Mutexes)[:nl]
			sortInts(locks)
			ops = append(ops, op{kind: opCS, locks: locks,
				body: []op{{kind: opAdd, arg: rng.Intn(p.cfg.Vars)}}})
		case k < 9:
			ops = append(ops, op{kind: opSend, arg: rng.Intn(p.chans), dst: 1 + rng.Intn(9)})
		case k < 10:
			ops = append(ops, op{kind: opSemV, arg: rng.Intn(p.sems)})
		case k < 11:
			ops = append(ops, op{kind: opGateOpen, arg: rng.Intn(p.gates)})
		case k < 12:
			if p.useWG {
				ops = append(ops, op{kind: opWgDone})
			} else {
				ops = append(ops, op{kind: opYield})
			}
		default:
			if depth > 0 && p.spawns+1 < p.cfg.MaxThreads {
				p.spawns++
				child := len(p.threads)
				p.threads = append(p.threads, nil)
				p.threads[child] = p.genSyncOps(rng, depth-1)
				ops = append(ops, op{kind: opSpawn, arg: child})
			} else {
				ops = append(ops, op{kind: opYield})
			}
		}
	}
	return ops
}

// GenDeadlock generates an intentionally deadlock-capable program and its
// computed oracle: contender threads each run noise operations and exactly
// one two-lock nested critical section with a random acquisition order.
// Deadlock is reachable iff the per-thread lock-order edges form a directed
// cycle (each edge comes from a distinct thread, all contenders run
// concurrently, and nothing else blocks), which is what the returned flag
// reports.
func GenDeadlock(seed int64, cfg Config) (*Program, bool) {
	cfg = cfg.normalized()
	if cfg.Mutexes < 2 {
		cfg.Mutexes = 2
	}
	p := &Program{cfg: cfg, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(2) // contender threads
	edges := make([][2]int, n)
	for i := range edges {
		a := rng.Intn(cfg.Mutexes)
		b := rng.Intn(cfg.Mutexes - 1)
		if b >= a {
			b++
		}
		edges[i] = [2]int{a, b}
	}
	deadlock := lockOrderCycle(edges, cfg.Mutexes)

	var root []op
	for i := 0; i < n; i++ {
		plan := make([]op, 0, 4)
		if rng.Intn(2) == 1 { // noise: never blocks, kept to one op so the
			// schedule space stays exhaustively enumerable in tests
			plan = append(plan, op{kind: opAdd, arg: rng.Intn(cfg.Vars)})
		}
		plan = append(plan, op{kind: opCS,
			locks: []int{edges[i][0], edges[i][1]},
			body:  []op{{kind: opAdd, arg: rng.Intn(cfg.Vars)}}})
		child := len(p.threads) + 1 // plan 0 (root) appended below
		root = append(root, op{kind: opSpawn, arg: child})
		p.threads = append(p.threads, plan)
	}
	p.threads = append([][]op{root}, p.threads...)
	p.spawns = n
	return p, deadlock
}

// lockOrderCycle reports whether the directed graph with one hold→acquire
// edge per contender has a cycle.
func lockOrderCycle(edges [][2]int, mutexes int) bool {
	adj := make([][]int, mutexes)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	color := make([]int, mutexes) // 0 white, 1 gray, 2 black
	var visit func(int) bool
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range adj[u] {
			if color[v] == 1 || (color[v] == 0 && visit(v)) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := 0; u < mutexes; u++ {
		if color[u] == 0 && visit(u) {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// gate is a condvar-protected monotonic flag: open-once, wait-until-open.
type gate struct {
	mu   *sched.Mutex
	cv   *sched.Cond
	flag *sched.Var
}

// Prog returns the runnable program. Every spawned thread is joined, and a
// behaviour fingerprint of the final shared state is reported. Gen and
// GenSync programs cannot deadlock; GenDeadlock programs deadlock on some
// schedules exactly when GenDeadlock's flag reports true.
func (p *Program) Prog() func(*sched.Thread) {
	return func(t *sched.Thread) {
		vars := make([]*sched.Var, p.cfg.Vars)
		for i := range vars {
			vars[i] = t.NewVar(fmt.Sprintf("v%d", i), 0)
		}
		mus := make([]*sched.Mutex, p.cfg.Mutexes)
		for i := range mus {
			mus[i] = t.NewMutex(fmt.Sprintf("m%d", i))
		}
		chans := make([]*sched.Chan[int64], p.chans)
		for i := range chans {
			chans[i] = sched.NewChan[int64](t, fmt.Sprintf("c%d", i), p.chanCap[i])
		}
		sems := make([]*sched.Semaphore, p.sems)
		for i := range sems {
			sems[i] = t.NewSemaphore(fmt.Sprintf("s%d", i), 0)
		}
		gates := make([]gate, p.gates)
		for i := range gates {
			mu := t.NewMutex(fmt.Sprintf("g%d.mu", i))
			gates[i] = gate{
				mu:   mu,
				cv:   t.NewCond(fmt.Sprintf("g%d.cv", i), mu),
				flag: t.NewVar(fmt.Sprintf("g%d.flag", i), 0),
			}
		}
		var wg *sched.WaitGroup
		if p.useWG {
			wg = t.NewWaitGroup("wg")
		}
		var runPlan func(w *sched.Thread, plan []op)
		runOps := func(w *sched.Thread, ops []op) []*sched.Handle {
			var hs []*sched.Handle
			for _, o := range ops {
				switch o.kind {
				case opLoad:
					vars[o.arg].Load(w)
				case opStore:
					vars[o.arg].Store(w, int64(o.arg)+1)
				case opAdd:
					vars[o.arg].Add(w, 1)
				case opYield:
					w.Yield()
				case opCS:
					for _, m := range o.locks {
						mus[m].Lock(w)
					}
					for _, b := range o.body {
						switch b.kind {
						case opAdd:
							vars[b.arg].Add(w, 1)
						case opLoad:
							vars[b.arg].Load(w)
						}
					}
					for i := len(o.locks) - 1; i >= 0; i-- {
						mus[o.locks[i]].Unlock(w)
					}
				case opSpawn:
					plan := p.threads[o.arg]
					hs = append(hs, w.Go(func(c *sched.Thread) { runPlan(c, plan) }))
				case opSend:
					chans[o.arg].Send(w, int64(o.dst))
				case opRecv:
					v, _ := chans[o.arg].Recv(w)
					vars[o.dst].Add(w, v)
				case opSemV:
					sems[o.arg].V(w)
				case opSemP:
					sems[o.arg].P(w)
				case opWgAdd:
					wg.Add(w, o.arg)
				case opWgDone:
					wg.Done(w)
				case opWgWait:
					wg.Wait(w)
				case opGateOpen:
					g := gates[o.arg]
					g.mu.Lock(w)
					g.flag.Store(w, 1)
					g.cv.Broadcast(w)
					g.mu.Unlock(w)
				case opGateWait:
					g := gates[o.arg]
					g.mu.Lock(w)
					for g.flag.Load(w) == 0 {
						g.cv.Wait(w)
					}
					g.mu.Unlock(w)
				}
			}
			return hs
		}
		runPlan = func(w *sched.Thread, plan []op) {
			hs := runOps(w, plan)
			w.JoinAll(hs...)
		}
		runPlan(t, p.threads[0])
		var sum int64
		for _, v := range vars {
			sum = sum*31 + v.Peek()
		}
		t.SetBehavior(fmt.Sprintf("%d", sum))
	}
}
