package surw_test

// Design guards. The tree keeps one of each of these: one Prometheus
// renderer, one session seed map and driver, one record codec, one class
// census, one observer hook, one fleet-health rule set, one cell key, one
// target registry and one grid loop. Each was merged or deleted down to
// one; each row of designGuards keeps a second from coming back, and gives
// the reason. TestDesignGuards fails on a row's match outside the places it
// allows; TestDesignGuardsCatchPlanted plants one offending line per row
// into a copy of a real file and requires that row to fire.
//
// A row matches source text line by line, comments included, or an AST
// shape, which finds code only. Its scope is every .go file of the tree,
// benchmark/ included and test files excepted, unless the row narrows or
// widens it. A place is a file, a directory ("dir/"), a glob ("dir/*.go")
// or one declaration of a file ("file.go:Func", "file.go:Type.Method",
// "file.go:Type.Field"). A row is one of two kinds:
//
//   - forbidden: no match outside the places in allow;
//   - required: the places in only hold every match outside allow, and
//     each of them holds one.
//
// A place a row names that the tree does not have fails the row, so a
// renamed or deleted file cannot turn a guard off.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// guard is one row of designGuards.
type guard struct {
	name  string
	why   string
	text  []string // strings, any of which on a source line is a match
	code  shape    // or the code it finds
	in    []string // the places in scope; none: the whole tree
	tests bool     // test files are in scope too
	allow []string
	only  []string // a required row's places
	plant plant    // a line the row must report
}

// shape finds code in a parsed file, at the positions it returns.
type shape func(*ast.File) []token.Pos

// plant is one offending line for a real file: an import goes after the
// package clause, anything else at the end.
type plant struct{ file, line string }

var designGuards = []guard{
	{
		name:  "one Prometheus renderer",
		why:   "the Prometheus text format is written by internal/obs/prom.go and read back by internal/obs/promtest/lint.go; a HELP or TYPE literal in any other non-test file is a second, hand-formatted renderer coming back",
		text:  []string{"# HELP", "# TYPE"},
		allow: []string{"internal/obs/prom.go", "internal/obs/promtest/lint.go"},
		plant: plant{"internal/campaign/server.go", `var _ = "# HELP surw_planted a hand-formatted family"`},
	},
	{
		name:  "one session seed map",
		why:   "a session's seeds are derived in internal/runner's driver.go and nowhere else; the seed map's two multipliers in a second non-test file are a second session loop coming back",
		text:  []string{"2_000_033", "1_000_003"},
		allow: []string{"benchmark/"},
		only:  []string{"internal/runner/driver.go"},
		plant: plant{"internal/runner/parallel.go", `var _ = int64(7) * 1_000_003`},
	},
	{
		name:  "one session driver",
		why:   "the library, surw run and the parallel runner get their schedules from runner.Driver, and surw fuzz, whose schedules are the crosscheck oracle's, from internal/crosscheck; a one-shot sched.Run or profile.Collect there is a second session loop, or a second self-check loop, coming back",
		text:  []string{"sched.Run(", "profile.Collect("},
		in:    []string{"session.go", "cmd/surw/run.go", "cmd/surw/fuzz.go", "internal/runner/parallel.go"},
		plant: plant{"session.go", `func plantedRun() { sched.Run(nil, nil, sched.Options{}) }`},
	},
	{
		name:  "one record codec",
		why:   "a session record is written by campaign.AppendRecord and read by campaign.ParseRecord (internal/campaign/wire.go), the lease's four messages by internal/remote/wire.go, and the requests off the per-session path by internal/remote/cold.go; a reflective encoder or a streaming decoder in the store, the worker loop or the coordinator's handlers is a record going through encoding/json again on its way to disk",
		text:  []string{"json.Marshal", "json.NewDecoder", "json.NewEncoder"},
		in:    []string{"internal/campaign/store.go", "internal/remote/worker.go", "internal/remote/coordinator.go"},
		plant: plant{"internal/campaign/store.go", `var _, _ = json.Marshal(nil)`},
	},
	{
		name:  "one class census",
		why:   "distinct commutation classes are counted exactly by campaign.Store.Aggregate, and every view reads that count; remote.ClassFilter is kept only for the benchmark's filter_add_ns rung, and spelled in another non-test file it is a second, approximate census coming back",
		text:  []string{"ClassFilter"},
		allow: []string{"internal/remote/filter.go", "benchmark/"},
		plant: plant{"internal/remote/coordinator.go", `var _ *ClassFilter`},
	},
	{
		name:  "one observer hook: no atlas in the engine",
		why:   "the engine is watched through sched.Tracer alone, and the atlas attaches as one; an atlas import in a non-test file of internal/sched is a second engine hook coming back",
		code:  spelled("surw/internal/atlas"),
		in:    []string{"internal/sched/*.go"},
		plant: plant{"internal/sched/sched.go", `import _ "surw/internal/atlas"`},
	},
	{
		name:  "one observer hook: one count per schedule",
		why:   "obs.Metrics counts a schedule once, in its tracer's EndSchedule (MetricsTracer.EndSchedule); an ObserveResult is a second count of each schedule",
		code:  spelled("ObserveResult"),
		plant: plant{"internal/obs/metrics.go", `func (m *Metrics) ObserveResult() {}`},
	},
	{
		name:  "one observer hook: events through an EventLog",
		why:   "a schedule's events are recorded by a sched.EventLog tracer; a RecordTrace is a second per-event observer coming back, a DeltaHash a per-event fold no production code reads",
		text:  []string{"RecordTrace", "DeltaHash"},
		plant: plant{"internal/sched/sched.go", `var _ = Options{RecordTrace: true}`},
	},
	{
		name:  "one observer hook: nothing wraps an algorithm to watch it",
		why:   "the census and the replay recorder watch a schedule as sched.Tracers, and the algorithm decides on the engine's fast paths as it does unwatched; a NextIndex or BeginSource on anything but core's random walk is an algorithm wrapped to watch it, forwarding or hiding those fast paths, coming back. benchmark/wrappers.go's timing wrappers time the algorithm itself, and stay until ROADMAP item 1(c)",
		code:  funcDecl(true, "NextIndex", "BeginSource"),
		allow: []string{"internal/core/randomwalk.go:RandomWalk.NextIndex", "internal/core/randomwalk.go:RandomWalk.BeginSource", "benchmark/wrappers.go"},
		plant: plant{"internal/profile/profile.go", `func (c *census) NextIndex(n int) int { return 0 }`},
	},
	{
		name:  "fleet health judges liveness",
		why:   "the health rules are a worker that fell silent without taking its leave and a lease renewed but never finished; a cell's schedules/s spans two orders of magnitude on healthy code and a hung lease never submits to be measured, so a SlowCell, a slow_cell or a FleetMedian is a verdict on speed coming back",
		text:  []string{"SlowCell", "slow_cell", "FleetMedian"},
		plant: plant{"internal/campaign/health.go", `const plantedRule = "slow_cell"`},
	},
	{
		name:  "one cell key",
		why:   "the seven fields that name a cell are declared once, as runner.CellKey, beside the runner.Config they are read from; a StopAtFirstBug declared anywhere else is a second cell key coming back",
		code:  declares("StopAtFirstBug"),
		allow: []string{"internal/runner/runner.go:CellKey.StopAtFirstBug", "internal/runner/runner.go:Config.StopAtFirstBug"},
		plant: plant{"internal/campaign/wire.go", `type plantedKey struct{ StopAtFirstBug bool }`},
	},
	{
		name:  "one cell-key codec",
		why:   "a cell key is spelled on the wire by internal/campaign's wire.go alone, a record's key and a lease alike; its stop_at_first_bug member anywhere but there and runner.CellKey's tag is a second codec coming back",
		text:  []string{"stop_at_first_bug"},
		allow: []string{"internal/campaign/wire.go", "internal/runner/runner.go:CellKey.StopAtFirstBug"},
		plant: plant{"internal/runner/runner.go", `var _ = []byte("\"stop_at_first_bug\":true")`},
	},
	{
		name:  "one target resolver",
		why:   "experiments.ByName is the one resolver, over sctbench's registry; a ByName in another non-test file is a second resolver coming back, and with it a name that builds its program afresh",
		code:  funcDecl(false, "ByName"),
		allow: []string{"internal/experiments/targets.go", "internal/sctbench/sctbench.go"},
		plant: plant{"cmd/surw/common.go", `func ByName(name string) {}`},
	},
	{
		name:  "one parser of the target families",
		why:   `experiments.ByName alone parses the two parametric families, "LightFTP@<progseed>" and "Fig1/bitshift_<k>"; a second parser is a second resolver coming back`,
		code:  cutsPrefix("LightFTP@", "Fig1/bitshift_"),
		allow: []string{"internal/experiments/targets.go"},
		plant: plant{"cmd/surw/run.go", `func plantedParse(s string) { strings.CutPrefix(s, "LightFTP@") }`},
	},
	{
		name:  "one grid loop",
		why:   "an experiment is a list of cells, and internal/experiments' grid.go is the one place that runs one: every session of every cell on one pool (runner.RunCells); a worker pool or a sched.Pool of the package's own is a hand-rolled cell loop coming back",
		text:  []string{"workpool.Map", "sched.NewPool", "runner.RunCells", "runner.RunTarget"},
		in:    []string{"internal/experiments/*.go"},
		only:  []string{"internal/experiments/grid.go"},
		plant: plant{"internal/experiments/fig2.go", `func plantedLoop() { workpool.Map(nil, 1, nil) }`},
	},
	{
		name:  "one grid loop: no RunTarget per cell",
		why:   "grid.go runs a grid's cells through runner.RunCells, on one pool; a RunTarget per cell is a hand-rolled cell loop coming back",
		text:  []string{"runner.RunTarget"},
		in:    []string{"internal/experiments/grid.go"},
		plant: plant{"internal/experiments/grid.go", `func plantedCell() { runner.RunTarget(runner.Target{}, "SURW", runner.Config{}) }`},
	},
	{
		name:  "one throughput footer",
		why:   "grid.go renders the one scheduler-throughput footer surw bench prints beside a grid's tables; a second ThroughputFooter is a hand-rolled cell loop's footer coming back",
		code:  funcDecl(true, "ThroughputFooter"),
		in:    []string{"internal/", "cmd/"},
		tests: true,
		only:  []string{"internal/experiments/grid.go:gridRun.ThroughputFooter"},
		plant: plant{"internal/experiments/grid_test.go", `func (plantedRun) ThroughputFooter() string { return "" }`},
	},
}

func TestDesignGuards(t *testing.T) {
	fset, srcs := parseSources(t)
	for _, g := range designGuards {
		if ps := g.problems(fset, srcs); len(ps) > 0 {
			t.Errorf("%s\n\t%s\n(%s)", g.name, strings.Join(ps, "\n\t"), g.why)
		}
	}
}

// Every row must report its planted line; every file a row names, renamed
// away, must fail the row (a shell guard over a list of files once passed
// when one of them was renamed); and a required place that loses its match
// must fail its row.
func TestDesignGuardsCatchPlanted(t *testing.T) {
	fset, srcs := parseSources(t)
	byName := map[string]guard{}
	for _, g := range designGuards {
		byName[g.name] = g
		planted, line := plantLine(t, fset, srcs, g.plant)
		if want := fmt.Sprintf("%s:%d: ", g.plant.file, line); !reports(g, fset, planted, want) {
			t.Errorf("%s: planted %q in %s is not reported", g.name, g.plant.line, g.plant.file)
		}
		for _, p := range slices.Concat(g.in, g.allow, g.only) {
			file, _, _ := strings.Cut(p, ":")
			if strings.Contains(file, "*") || strings.HasSuffix(file, "/") {
				continue
			}
			renamed := slices.Clone(srcs)
			for i := range renamed {
				if renamed[i].rel == file {
					renamed[i].rel = strings.TrimSuffix(file, ".go") + "_renamed_away.go"
				}
			}
			if !reports(g, fset, renamed, p+": ") {
				t.Errorf("%s: %s renamed away is not reported", g.name, file)
			}
		}
	}
	for _, c := range []struct {
		guard, file string
		oldnew      []string
	}{
		{"one session seed map", "internal/runner/driver.go", []string{"2_000_033", "2", "1_000_003", "1"}},
		{"one grid loop", "internal/experiments/grid.go", []string{"runner.RunCells", "runCells"}},
		{"one throughput footer", "internal/experiments/grid.go", []string{") ThroughputFooter(", ") Footer("}},
	} {
		i := indexOf(t, srcs, c.file)
		src := strings.NewReplacer(c.oldnew...).Replace(string(srcs[i].src))
		moved := slices.Clone(srcs)
		moved[i] = parseSource(t, fset, c.file, []byte(src))
		if g := byName[c.guard]; !reports(g, fset, moved, "holds no match") {
			t.Errorf("%s: %s without its match is not reported", c.guard, c.file)
		}
	}
}

// reports reports whether one of g's problems on srcs contains want.
func reports(g guard, fset *token.FileSet, srcs []goSource, want string) bool {
	return slices.ContainsFunc(g.problems(fset, srcs), func(p string) bool { return strings.Contains(p, want) })
}

// plantLine returns srcs with p's line planted in its file, and the line's
// number there.
func plantLine(t *testing.T, fset *token.FileSet, srcs []goSource, p plant) ([]goSource, int) {
	t.Helper()
	i := indexOf(t, srcs, p.file)
	lines := strings.Split(strings.TrimSuffix(string(srcs[i].src), "\n"), "\n")
	at := len(lines)
	if strings.HasPrefix(p.line, "import ") {
		at = slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "package ") }) + 1
	}
	lines = slices.Insert(lines, at, p.line)
	out := slices.Clone(srcs)
	out[i] = parseSource(t, fset, p.file, []byte(strings.Join(lines, "\n")+"\n"))
	return out, at + 1
}

// indexOf returns the index of file rel in srcs.
func indexOf(t *testing.T, srcs []goSource, rel string) int {
	t.Helper()
	i := slices.IndexFunc(srcs, func(s goSource) bool { return s.rel == rel })
	if i < 0 {
		t.Fatalf("no file %s", rel)
	}
	return i
}

func parseSource(t *testing.T, fset *token.FileSet, rel string, src []byte) goSource {
	t.Helper()
	f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return goSource{rel, src, f}
}

// problems returns one line per match of g outside the places it allows,
// per required place that holds no match, and per place g names that the
// tree does not have.
func (g guard) problems(fset *token.FileSet, srcs []goSource) []string {
	var out []string
	for _, p := range slices.Concat(g.in, g.allow, g.only) {
		if !slices.ContainsFunc(srcs, func(s goSource) bool { return holds(s, p, token.NoPos) }) {
			out = append(out, p+": no such file or declaration")
		}
	}
	held := map[string]bool{}
	for _, s := range srcs {
		if !g.tests && strings.HasSuffix(s.rel, "_test.go") ||
			len(g.in) > 0 && !slices.ContainsFunc(g.in, func(p string) bool { return holds(s, p, token.NoPos) }) {
			continue
		}
		for _, pos := range g.matches(fset, s) {
			if i := slices.IndexFunc(g.only, func(p string) bool { return holds(s, p, pos) }); i >= 0 {
				held[g.only[i]] = true
				continue
			}
			if slices.ContainsFunc(g.allow, func(p string) bool { return holds(s, p, pos) }) {
				continue
			}
			line := fset.Position(pos).Line
			text := strings.TrimSpace(string(bytes.Split(s.src, []byte("\n"))[line-1]))
			out = append(out, fmt.Sprintf("%s:%d: %s", s.rel, line, text))
		}
	}
	for _, p := range g.only {
		if !held[p] {
			out = append(out, p+" holds no match")
		}
	}
	return out
}

// matches returns the positions in s of g's text or shape.
func (g guard) matches(fset *token.FileSet, s goSource) []token.Pos {
	if g.code != nil {
		return g.code(s.file)
	}
	if !slices.ContainsFunc(g.text, func(t string) bool { return bytes.Contains(s.src, []byte(t)) }) {
		return nil
	}
	var out []token.Pos
	tf := fset.File(s.file.Pos())
	for i, line := range bytes.Split(s.src, []byte("\n")) {
		for _, t := range g.text {
			if at := bytes.Index(line, []byte(t)); at >= 0 {
				out = append(out, tf.LineStart(i+1)+token.Pos(at))
				break
			}
		}
	}
	return out
}

// holds reports whether s is, or holds, place p, and position pos of s
// lies in it (token.NoPos: anywhere).
func holds(s goSource, p string, pos token.Pos) bool {
	file, decl, _ := strings.Cut(p, ":")
	return under(s.rel, file) && (decl == "" || slices.ContainsFunc(declSpans(s.file), func(d declSpan) bool {
		return d.name == decl && (pos == token.NoPos || d.pos <= pos && pos < d.end)
	}))
}

// under reports whether rel is the file p names, or lies under it: a
// directory (p ends in "/") or a glob.
func under(rel, p string) bool {
	if strings.HasSuffix(p, "/") {
		return strings.HasPrefix(rel, p)
	}
	ok, _ := path.Match(p, rel)
	return ok
}

// declSpan is one named declaration of a file: a function ("Func"), a
// method ("Type.Method") or a field of a struct type ("Type.Field").
type declSpan struct {
	name     string
	pos, end token.Pos
}

func declSpans(f *ast.File) []declSpan {
	var out []declSpan
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				name = baseTypeName(d.Recv.List[0].Type) + "." + name
			}
			out = append(out, declSpan{name, d.Pos(), d.End()})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						out = append(out, declSpan{ts.Name.Name + "." + n.Name, fl.Pos(), fl.End()})
					}
				}
			}
		}
	}
	return out
}

// spelled is the shape of an identifier or a string literal (an import
// path among them) that contains name.
func spelled(name string) shape {
	return func(f *ast.File) []token.Pos {
		var out []token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if strings.Contains(n.Name, name) {
					out = append(out, n.Pos())
				}
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && strings.Contains(v, name) {
					out = append(out, n.Pos())
				}
			}
			return true
		})
		return out
	}
}

// declares is the shape of a declared name that contains name: a field,
// parameter or result, a var or const, a type or a function.
func declares(name string) shape {
	return func(f *ast.File) []token.Pos {
		var out []token.Pos
		add := func(ids ...*ast.Ident) {
			for _, id := range ids {
				if strings.Contains(id.Name, name) {
					out = append(out, id.Pos())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				add(n.Names...)
			case *ast.ValueSpec:
				add(n.Names...)
			case *ast.TypeSpec:
				add(n.Name)
			case *ast.FuncDecl:
				add(n.Name)
			}
			return true
		})
		return out
	}
}

// funcDecl is the shape of a function (method false) or a method (true)
// declared with one of names.
func funcDecl(method bool, names ...string) shape {
	return func(f *ast.File) []token.Pos {
		var out []token.Pos
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && slices.Contains(names, fd.Name.Name) && (fd.Recv != nil) == method {
				out = append(out, fd.Name.Pos())
			}
		}
		return out
	}
}

// cutsPrefix is the shape of a CutPrefix call given a string literal that
// starts with one of prefixes.
func cutsPrefix(prefixes ...string) shape {
	return func(f *ast.File) []token.Pos {
		var out []token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || baseTypeName(call.Fun) != "CutPrefix" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(v, p) }) {
							out = append(out, lit.Pos())
						}
					}
					return true
				})
			}
			return true
		})
		return out
	}
}
