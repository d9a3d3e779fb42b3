package ftp

import (
	"math/rand"
	"strings"
	"testing"

	"surw/internal/core"
	"surw/internal/runner"
	"surw/internal/sched"
)

func TestScriptComposition(t *testing.T) {
	cfg := DefaultConfig()
	s := cfg.script(1, nil)
	if len(s) != 9 {
		t.Fatalf("script length = %d, want 9", len(s))
	}
	util, mkd, rmd := 0, 0, 0
	for _, c := range s {
		switch c.kind {
		case cmdNoop:
			util++
		case cmdMkd:
			mkd++
			if !strings.HasPrefix(c.path, "/c1d") {
				t.Fatalf("client 1 MKD of %q", c.path)
			}
		case cmdRmd:
			rmd++
			if !strings.HasPrefix(c.path, "/c2d") {
				t.Fatalf("client 1 RMD of %q (victim must be client 2)", c.path)
			}
		}
	}
	if util != 3 || mkd != 3 || rmd != 3 {
		t.Fatalf("composition %d/%d/%d", util, mkd, rmd)
	}
}

func TestScriptShuffleDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := cfg.script(0, rand.New(rand.NewSource(7)))
	b := cfg.script(0, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different scripts")
		}
	}
	c := cfg.script(0, rand.New(rand.NewSource(8)))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical scripts (improbable)")
	}
}

func TestWorkloadRunsClean(t *testing.T) {
	tgt := DefaultConfig().Target(3)
	for seed := int64(0); seed < 50; seed++ {
		res := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed, ProgSeed: tgt.ProgSeed}, TraceFilter: tgt.TraceFilter})
		if res.Buggy() || res.Truncated {
			t.Fatalf("seed %d: %v truncated=%v", seed, res.Failure, res.Truncated)
		}
		if res.Behavior == "" {
			t.Fatal("no behaviour reported")
		}
		if res.Threads != 1+4+4 {
			t.Fatalf("threads = %d, want 9 (root + 4 sessions + 4 data)", res.Threads)
		}
	}
}

func TestBehaviorsVaryAcrossSchedules(t *testing.T) {
	tgt := DefaultConfig().Target(3)
	seen := map[string]bool{}
	for seed := int64(0); seed < 300; seed++ {
		res := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed, ProgSeed: tgt.ProgSeed}})
		seen[res.Behavior] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct final trees in 300 schedules", len(seen))
	}
}

func TestBehaviorFixedInputFixedSchedule(t *testing.T) {
	tgt := DefaultConfig().Target(9)
	a := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 4, ProgSeed: 9}})
	b := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 4, ProgSeed: 9}})
	if a.Behavior != b.Behavior || a.InterleavingHash != b.InterleavingHash {
		t.Fatal("replay diverged")
	}
}

func TestTraceFilterScopesClients(t *testing.T) {
	f := TraceFilterFS(2)
	fsHash := sched.HashName("fs")
	if !f(sched.Event{Kind: sched.OpRMW, ObjHash: fsHash, PathHash: sched.HashName("0.0")}) {
		t.Fatal("client 0 session fs mutation excluded")
	}
	if !f(sched.Event{Kind: sched.OpWrite, ObjHash: fsHash, PathHash: sched.HashName("0.1.0")}) {
		t.Fatal("client 1 data worker excluded")
	}
	if f(sched.Event{Kind: sched.OpRMW, ObjHash: fsHash, PathHash: sched.HashName("0.2")}) {
		t.Fatal("client 2 included")
	}
	if f(sched.Event{Kind: sched.OpRead, ObjHash: fsHash, PathHash: sched.HashName("0.0")}) {
		t.Fatal("fs read included; the recorded interleaving is mutations only")
	}
	if f(sched.Event{Kind: sched.OpRMW, ObjHash: sched.HashName("sessions"), PathHash: sched.HashName("0.0")}) {
		t.Fatal("non-fs event included")
	}
}

func TestSURWBeatsPCTOnExploration(t *testing.T) {
	// The case study's headline (Table 3 / Figure 5): SURW explores both
	// interleavings and behaviours more than PCT-3. A scaled-down check on
	// one multi-session run per algorithm; experiments' TestLightFTPSmall
	// asserts the same ordering on what Table 3 and Figure 5 print.
	tgt := DefaultConfig().Target(5)
	cfg := runner.Config{Sessions: 2, Limit: 600, Seed: 21, Coverage: true, CoverageEvery: 200}
	// explore returns the session means of the interleaving and behaviour
	// entropies and of the final interleaving coverage.
	explore := func(alg string) (ilv, beh, cov float64) {
		res, err := runner.RunTarget(tgt, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Sessions {
			ilv += s.Cov.InterleavingEntropy()
			beh += s.Cov.BehaviorEntropy()
			cov += float64(s.Cov.Series[len(s.Cov.Series)-1].Interleavings)
		}
		n := float64(len(res.Sessions))
		return ilv / n, beh / n, cov / n
	}
	sIlv, sBeh, sCov := explore("SURW")
	pIlv, pBeh, pCov := explore("PCT-3")
	if sIlv <= pIlv {
		t.Fatalf("interleaving entropy: SURW %.2f <= PCT-3 %.2f", sIlv, pIlv)
	}
	if sBeh <= pBeh {
		t.Fatalf("behaviour entropy: SURW %.2f <= PCT-3 %.2f", sBeh, pBeh)
	}
	if sCov <= pCov {
		t.Fatalf("interleaving coverage: SURW %.0f <= PCT-3 %.0f", sCov, pCov)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{Clients: 0, Util: -1, Dirs: -2}.normalized()
	if c.Clients != 4 || c.Util != 0 || c.Dirs != 0 {
		t.Fatalf("normalized = %+v", c)
	}
	tgt := Config{Clients: 2, Util: 1, Dirs: 1}.Target(1)
	res := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 1, ProgSeed: 1}})
	if res.Buggy() {
		t.Fatalf("small config failed: %v", res.Failure)
	}
}

func TestDirName(t *testing.T) {
	if DirName(2, 1) != "/c2d1" {
		t.Fatalf("DirName = %q", DirName(2, 1))
	}
}

func TestFileCommandsWorkload(t *testing.T) {
	cfg := Config{Clients: 3, Util: 1, Dirs: 1, Files: 2, Shuffle: true, Noise: -1, Startup: -1}
	s := cfg.normalized().script(0, rand.New(rand.NewSource(3)))
	stor, retr, dele := 0, 0, 0
	for _, c := range s {
		switch c.kind {
		case cmdStor:
			stor++
			if !strings.HasPrefix(c.path, "/c0f") {
				t.Fatalf("client 0 STOR of %q", c.path)
			}
		case cmdRetr:
			retr++
		case cmdDele:
			dele++
			if !strings.HasPrefix(c.path, "/c1f") {
				t.Fatalf("client 0 DELE of %q (victim must be client 1)", c.path)
			}
		}
	}
	if stor != 2 || retr != 2 || dele != 2 {
		t.Fatalf("file commands %d/%d/%d, want 2/2/2", stor, retr, dele)
	}
	tgt := cfg.Target(3)
	behaviors := map[string]bool{}
	for seed := int64(0); seed < 100; seed++ {
		res := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed, ProgSeed: 3}})
		if res.Buggy() || res.Truncated {
			t.Fatalf("seed %d: %v truncated=%v", seed, res.Failure, res.Truncated)
		}
		behaviors[res.Behavior] = true
	}
	if len(behaviors) < 3 {
		t.Fatalf("file workload produced only %d behaviours", len(behaviors))
	}
}
