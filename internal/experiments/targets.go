package experiments

import (
	"strconv"
	"strings"
	"sync"

	"surw/internal/ftp"
	"surw/internal/racebench"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// built memoises what ByName constructs, by name.
var built sync.Map

// ByName is the one target resolver, of every subcommand's target names and
// a fleet worker's leases. It tries sctbench's registry, the RaceBench
// suite, then two families: the LightFTP case study under one trial's
// client scripts ("LightFTP@<progseed>": ProgSeed is no part of a session
// key, so the ftp cells' names carry it; bare "LightFTP" is seed 1) and
// the Figure 1 program "Fig1/bitshift_<k>", 0 < k <= 31. A name resolves to
// the same value every time, Prog closure included, so a warm sched.Pool
// recognises its program.
func ByName(name string) (runner.Target, bool) {
	if tgt, ok := sctbench.ByName(name); ok {
		return tgt, true
	}
	if tgt, ok := built.Load(name); ok {
		return tgt.(runner.Target), true
	}
	tgt, ok := build(name)
	if ok {
		got, _ := built.LoadOrStore(name, tgt)
		tgt = got.(runner.Target)
	}
	return tgt, ok
}

// build constructs the target a name outside sctbench's registry denotes.
// A family member's number must be spelled as it formats, so no name is a
// second spelling of another.
func build(name string) (runner.Target, bool) {
	for _, b := range racebench.Suite() {
		if b.Target().Name == name {
			return b.Target(), true
		}
	}
	if name == "LightFTP" {
		return ftp.DefaultConfig().Target(1), true
	}
	if rest, ok := strings.CutPrefix(name, "LightFTP@"); ok {
		if seed, err := strconv.ParseInt(rest, 10, 64); err == nil && strconv.FormatInt(seed, 10) == rest {
			tgt := ftp.DefaultConfig().Target(seed)
			tgt.Name = name
			return tgt, true
		}
	}
	if rest, ok := strings.CutPrefix(name, "Fig1/bitshift_"); ok {
		if k, err := strconv.Atoi(rest); err == nil && strconv.Itoa(k) == rest && k > 0 && k <= 31 {
			return sctbench.Bitshift(k), true
		}
	}
	return runner.Target{}, false
}

// Names lists what ByName resolves, the two families as patterns.
func Names() []string {
	names := sctbench.Names()
	for _, b := range racebench.Suite() {
		names = append(names, b.Target().Name)
	}
	return append(names, "LightFTP", "LightFTP@<progseed>", "Fig1/bitshift_<k>")
}
