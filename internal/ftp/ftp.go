// Package ftp models the paper's LightFTP case study (§5): a multi-threaded
// FTP server operating on an in-memory filesystem, driven by concurrent
// scripted clients. As in the study, each client authenticates, issues a
// randomly shuffled sequence of utility, MKD and RMD commands against a
// shared directory, fetches a listing over a spawned data-transfer thread
// (PASV-LIST), and disconnects. The interleavings of interest are the
// temporal orderings of filesystem accesses; the behaviour is the final
// file structure.
//
// The command shuffle is drawn from the program-input stream (ProgSeed), so
// it is fixed across the schedules of one trial — the paper's fixed-input
// methodology — while varying across trials.
package ftp

import (
	"fmt"
	"math/rand"
	"strings"

	"surw/internal/memfs"
	"surw/internal/profile"
	"surw/internal/runner"
	"surw/internal/sched"
)

// Command kinds of the client scripts.
type cmdKind uint8

const (
	cmdNoop cmdKind = iota // NOOP/SYST/PWD-style utility: reads server state
	cmdMkd                 // MKD <dir>
	cmdRmd                 // RMD <dir>
	cmdStor                // STOR <file>: upload
	cmdRetr                // RETR <file>: download
	cmdDele                // DELE <file>: delete
)

type command struct {
	kind cmdKind
	path string
}

// Config shapes the workload.
type Config struct {
	// Clients is the number of concurrent clients (paper: 4).
	Clients int
	// Util is the number of utility commands per client (paper: 3).
	Util int
	// Dirs is the number of MKD (and RMD) commands per client (paper: 3).
	Dirs int
	// Shuffle randomizes each client's command order per trial (paper: on).
	Shuffle bool
	// Noise is the number of session-local socket/parse events preceding
	// each command, modeling per-command non-filesystem work (default 4;
	// 0 means default, -1 means none).
	Noise int
	// Files is the number of STOR (plus one RETR and one DELE of the
	// neighbour's files) commands per client. The paper's workload uses
	// none; a positive value enriches the behaviour space with file
	// lifetimes.
	Files int
	// Startup is the number of single-threaded server initialization
	// events (config parsing, socket setup) preceding the serving phase.
	// They inflate the instrumented trace length exactly as the real
	// server's startup does — which is what starves PCT's change points —
	// without offering any scheduling choice (default 1500; 0 means
	// default, -1 means none).
	Startup int
}

// DefaultConfig is the paper's case-study setup.
func DefaultConfig() Config {
	return Config{Clients: 4, Util: 3, Dirs: 3, Shuffle: true}
}

func (c Config) normalized() Config {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Util < 0 {
		c.Util = 0
	}
	if c.Dirs < 0 {
		c.Dirs = 0
	}
	if c.Noise == 0 {
		c.Noise = 4
	}
	if c.Noise < 0 {
		c.Noise = 0
	}
	if c.Startup == 0 {
		c.Startup = 1500
	}
	if c.Startup < 0 {
		c.Startup = 0
	}
	return c
}

// DirName returns the k-th directory owned by a client.
func DirName(client, k int) string { return fmt.Sprintf("/c%dd%d", client, k) }

// FileName returns the k-th file owned by a client.
func FileName(client, k int) string { return fmt.Sprintf("/c%df%d", client, k) }

// script builds one client's command sequence: util + MKD(own) + RMD(next
// client's), shuffled when configured.
func (c Config) script(client int, rng *rand.Rand) []command {
	var cmds []command
	for k := 0; k < c.Util; k++ {
		cmds = append(cmds, command{kind: cmdNoop})
	}
	for k := 0; k < c.Dirs; k++ {
		cmds = append(cmds, command{kind: cmdMkd, path: DirName(client, k)})
	}
	victim := (client + 1) % c.Clients
	for k := 0; k < c.Dirs; k++ {
		cmds = append(cmds, command{kind: cmdRmd, path: DirName(victim, k)})
	}
	for k := 0; k < c.Files; k++ {
		cmds = append(cmds,
			command{kind: cmdStor, path: FileName(client, k)},
			command{kind: cmdRetr, path: FileName(victim, k)},
			command{kind: cmdDele, path: FileName(victim, k)})
	}
	if c.Shuffle && rng != nil {
		rng.Shuffle(len(cmds), func(i, j int) { cmds[i], cmds[j] = cmds[j], cmds[i] })
	}
	return cmds
}

// Prog returns the server+clients program for one schedule.
func (c Config) Prog() func(*sched.Thread) {
	cfg := c.normalized()
	return func(t *sched.Thread) {
		// Scripts are drawn in the root thread, before any scheduling
		// choice can interleave the draws, so they depend only on ProgSeed.
		scripts := make([][]command, cfg.Clients)
		for i := range scripts {
			scripts[i] = cfg.script(i, t.ProgRand())
		}
		fs := sched.NewRef[*memfs.FS](t, "fs", memfs.New())
		sessions := t.NewVar("sessions", 0)
		boot := t.NewVar("boot", 0)
		for k := 0; k < cfg.Startup; k++ {
			boot.Add(t, 1) // single-threaded server initialization
		}
		handles := make([]*sched.Handle, cfg.Clients)
		for i := range handles {
			script := scripts[i]
			sockBuf := t.NewVar(fmt.Sprintf("sock%d", i), 0)
			// recvParse models the per-command socket read and parse work
			// of the real server: events on session-local state only.
			recvParse := func(w *sched.Thread) {
				for k := 0; k < cfg.Noise; k++ {
					sockBuf.Add(w, 1)
				}
			}
			handles[i] = t.Go(func(w *sched.Thread) {
				sessions.Add(w, 1) // USER/PASS accepted
				for _, cmd := range script {
					recvParse(w)
					switch cmd.kind {
					case cmdNoop:
						fs.Get(w) // status reply reads server state
					case cmdMkd:
						// LightFTP resolves and checks the path before
						// creating: a read followed by a write, racing with
						// other sessions in between.
						if f := fs.Get(w); !f.Exists(cmd.path) {
							fs.Update(w, func(f *memfs.FS) *memfs.FS {
								_ = f.Mkdir(cmd.path) // lost race => 550 reply
								return f
							})
						}
					case cmdRmd:
						if f := fs.Get(w); f.Exists(cmd.path) {
							fs.Update(w, func(f *memfs.FS) *memfs.FS {
								_ = f.Rmdir(cmd.path)
								return f
							})
						}
					case cmdStor:
						fs.Update(w, func(f *memfs.FS) *memfs.FS {
							_ = f.WriteFile(cmd.path, []byte(cmd.path))
							return f
						})
					case cmdRetr:
						if f := fs.Get(w); f.Exists(cmd.path) {
							f2 := fs.Get(w) // data connection re-reads
							_, _ = f2.ReadFile(cmd.path)
						}
					case cmdDele:
						if f := fs.Get(w); f.Exists(cmd.path) {
							fs.Update(w, func(f *memfs.FS) *memfs.FS {
								_ = f.Delete(cmd.path)
								return f
							})
						}
					}
				}
				// PASV-LIST: LightFTP serves the data connection on a
				// spawned worker thread. The behaviour of the run is the
				// listing returned by whichever LIST executes last (§5) —
				// SetBehavior's last-write-wins matches exactly, since the
				// Get below is the worker's single serialized event.
				data := w.Go(func(d *sched.Thread) {
					f := fs.Get(d)
					names, _ := f.List("/")
					d.SetBehavior(strings.Join(names, ","))
				})
				w.Join(data)
				sessions.Add(w, -1) // QUIT
			})
		}
		t.JoinAll(handles...)
		t.Assert(sessions.Load(t) == 0, "ftp-session-leak")
	}
}

// Target builds the runner target for the case study. progSeed selects the
// trial's fixed client scripts. The interleaving fingerprint records the
// filesystem accesses of the first two clients only, as in the paper
// (footnote 5: the full 4-client space is too large to ever resample).
func (c Config) Target(progSeed int64) runner.Target {
	return runner.Target{
		Name:        "LightFTP",
		Prog:        c.Prog(),
		ProgSeed:    progSeed,
		TraceFilter: TraceFilterFS(2),
		Select: func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool) {
			return FSSelection(), true
		},
	}
}

// FSSelection is the expert Δ of §3.6: the filesystem accesses that modify
// server state. The behaviour of an FTP server is its file system, and the
// file system is a function of the order of its mutations, so their
// interleavings partition almost bijectively into behaviours — exactly the
// "evenly distributed" property §2.2 asks of Δ.
func FSSelection() profile.Selection {
	fsHash := sched.HashName("fs")
	return profile.SelectCustom("filesystem mutations", func(ev sched.Event) bool {
		return ev.ObjHash == fsHash && ev.Kind.IsWrite()
	})
}

// TraceFilterFS keeps only the mutating filesystem events of the first n
// clients' session threads (and their data-transfer workers) — the
// case-study's recorded interleaving.
func TraceFilterFS(n int) func(sched.Event) bool {
	fsHash := sched.HashName("fs")
	paths := make(map[uint64]bool, 2*n)
	for i := 0; i < n; i++ {
		paths[sched.HashName(fmt.Sprintf("0.%d", i))] = true
		paths[sched.HashName(fmt.Sprintf("0.%d.0", i))] = true
	}
	return func(ev sched.Event) bool {
		return ev.ObjHash == fsHash && ev.Kind.IsWrite() && paths[ev.PathHash]
	}
}
