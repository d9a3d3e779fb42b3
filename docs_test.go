package surw_test

// Docs the tree checks. Every inline backticked reference in the checked
// documents, and every command line in their fenced blocks, must name
// something the tree has:
//
//   - pkg.Ident, pkg.Type.Member and Type.Member (method, field or
//     interface method, promoted through embedding) in this module, and a
//     mixed-case bare identifier somewhere in its Go code;
//   - Test*, Benchmark*, Fuzz* and Example* functions, bare or as a
//     `go test -run/-bench/-fuzz` pattern, each alternative of which must
//     match a function in the named packages;
//   - dir/file.go[:N] paths: the file exists and has at least N lines;
//   - surw <sub> -flag against cmd/surw/testdata/flags.golden, a bare -flag
//     against every flag the tree defines, make targets, and the benchmark
//     harness's --workload names;
//   - surw_* families against the golden /metrics pages, HTTP paths
//     against the server code's string literals, and benchmark metric names
//     (dotted or snake_case) against BENCHMARK.json.
//
// The numbers are checked too: every number in a "Measured" table of
// EXPERIMENTS.md equals its cell in the results/ file named above the table
// (TestMeasuredTablesQuoteResults), and results/ itself is what `surw bench
// -out results all` writes (ci.sh).
//
// Skipped by rule: names qualified by a standard-library package,
// artifact names (aggregates.json, DIR/…), placeholders (surwsync.X,
// <sub>), and spans that are expressions rather than names. What is left
// unresolved fails TestDocsResolve unless docsAllowlist holds it, and an
// entry no doc needs any more fails too. CHANGES.md is history and is not
// checked.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// checkedDocs are the documents whose references must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}

// docsAllowlist holds the only unresolved names a checked doc may spell:
// names it mentions as deleted or as proposed. The key is the name as the
// checker reports it.
var docsAllowlist = map[string]string{
	"-dedup-abandon":                 "deleted: prefix-class early abandon (EXPERIMENTS \"Mechanisms, priced\")",
	"-yield-leases":                  "deleted: yield-weighted grants (EXPERIMENTS \"Mechanisms, priced\")",
	"/v1/classes":                    "deleted with early abandon",
	"internal/race":                  "deleted: race-directed Δ (EXPERIMENTS \"Mechanisms, priced\")",
	"surw.DetectRaces":               "deleted: race-directed Δ (EXPERIMENTS \"Mechanisms, priced\")",
	"SelectRacyVars":                 "deleted: race-directed Δ (EXPERIMENTS \"Mechanisms, priced\")",
	"DataRace":                       "deleted: race-directed Δ (EXPERIMENTS \"Mechanisms, priced\")",
	"sched.Result.ThreadPaths":       "deleted: race-directed Δ (EXPERIMENTS \"Mechanisms, priced\")",
	"sched.State.TIDByPath":          "deleted: no caller (ROADMAP item 24)",
	"ingestLocked":                   "deleted: the coordinator's class census (DESIGN §11 \"One class census\")",
	"atlas.Grid":                     "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"GridDepths":                     "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"NumGrids":                       "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"GridBits":                       "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"GridSize":                       "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"mergeGrids":                     "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"atlas.HeatmapSVG":               "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"heatColor":                      "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"atlasHash":                      "deleted: density grids (EXPERIMENTS \"Mechanisms, priced\")",
	"Accum.Decision":                 "deleted: the atlas became a sched.Tracer (DESIGN §13)",
	"ObserveResult":                  "deleted: Metrics counts a schedule in MetricsTracer.EndSchedule (DESIGN §7)",
	"RecordTrace":                    "deleted: a sched.EventLog tracer records a schedule's events (DESIGN §7)",
	"GenSpin":                        "proposed: ROADMAP item 2",
	"internal/experiments/claims.go": "proposed: ROADMAP item 3",
	"surw_delta_*":                   "proposed: ROADMAP item 4(b)",
	"-explain":                       "proposed: ROADMAP item 4(c)",
	"-delta-policy":                  "proposed: ROADMAP item 4(d)",
	"-layers":                        "proposed: ROADMAP item 9",
	"-ablate":                        "proposed: ROADMAP item 1(c), a benchmark harness switch",
}

func TestDocsResolve(t *testing.T) {
	tr := loadTree(t)
	used := map[string]bool{}
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tr.check(doc, string(text)) {
			key := p.key
			if i := strings.Index(key, " -"); i > 0 {
				key = key[i+1:] // a flag is allowed under every subcommand
			}
			if _, ok := docsAllowlist[key]; ok {
				used[key] = true
				continue
			}
			t.Errorf("%s", p)
		}
	}
	for key := range docsAllowlist {
		if !used[key] {
			t.Errorf("docsAllowlist entry %q: no checked doc needs it any more", key)
		}
	}
}

// One stale name of every kind, planted into each doc's real text, must be
// reported — including three the docs once carried, and one a test spells
// only inside a string (a test program's variable name).
func TestDocsCheckerCatchesPlantedNames(t *testing.T) {
	tr := loadTree(t)
	planted := []struct{ span, key string }{
		{"`sched.NoSuchIdent`", "sched.NoSuchIdent"},
		{"`Pool.NoSuchMethod`", "Pool.NoSuchMethod"},
		{"`TestNoSuchTest`", "TestNoSuchTest"},
		{"`internal/sched/pool.go:100000`", "internal/sched/pool.go:100000"},
		{"`surw bench -no-such-flag`", "bench -no-such-flag"},
		{"`surw_no_such_family`", "surw_no_such_family"},
		{"`go test -run TestNoSuchPattern ./internal/sched`", "-run TestNoSuchPattern"},
		{"`/v1/no-such-path`", "/v1/no-such-path"},
		{"`sched.no_such_metric`", "sched.no_such_metric"},
		{"`TestAtlasNeverPerturbs`", "TestAtlasNeverPerturbs"},
		{"`surw bench -ftp`", "bench -ftp"},
		{"`profile.SelectSingleVar`", "profile.SelectSingleVar"},
		{"`activeReaders`", "activeReaders"},
		{"```\nsurw run -no-such-fenced-flag\n```", "run -no-such-fenced-flag"},
	}
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.Write(text)
		for _, p := range planted {
			b.WriteString("\n\n" + p.span + "\n")
		}
		reported := map[string]bool{}
		for _, p := range tr.check(doc, b.String()) {
			reported[p.key] = true
		}
		for _, p := range planted {
			if !reported[p.key] {
				t.Errorf("%s: planted %s is not reported", doc, p.span)
			}
		}
	}
}

// docProblem is one unresolved reference.
type docProblem struct {
	doc  string
	line int
	span string
	key  string // the name that failed to resolve
	why  string
}

func (p docProblem) String() string {
	return fmt.Sprintf("%s:%d: `%s`: %s %s", p.doc, p.line, p.span, p.key, p.why)
}

// goType is what a type declares: fields (an embedded one under its type
// name), methods and interface methods, and the types it embeds.
type goType struct {
	members  map[string]bool
	embedded []string
}

// tree is the index the docs are checked against.
type tree struct {
	pkgDecls  map[string]map[string]bool // package name → top-level names
	decls     map[string]bool            // every top-level name
	pkgTypes  map[string]map[string]*goType
	types     map[string][]*goType       // type name → every type of that name
	members   map[string]bool            // every field, method and interface method name
	idents    map[string]bool            // every identifier the Go code spells
	funcs     map[string]map[string]bool // directory → its Test, Benchmark, Fuzz and Example functions
	words     map[string]bool            // the words of non-test string literals
	testWords map[string]bool            // the words of test files' string literals
	httpPaths map[string]bool            // "/…" literals of non-test code
	files     map[string]bool            // slash paths
	dirs      map[string]bool
	subs      map[string]bool
	flags     map[string]bool // "sub -name" from flags.golden
	anyFlag   map[string]bool // every flag name the tree defines
	families  []string
	metrics   []string
	workloads map[string]bool
	targets   map[string]bool // make targets
	stdlib    map[string]bool
}

var (
	treeOnce sync.Once
	treeIdx  *tree
	treeErr  error
)

func loadTree(t *testing.T) *tree {
	t.Helper()
	treeOnce.Do(func() { treeIdx, treeErr = indexTree() })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treeIdx
}

// indexTree indexes the tree under the working directory, the repository
// root.
func indexTree() (*tree, error) {
	tr := &tree{
		pkgDecls: map[string]map[string]bool{}, decls: map[string]bool{}, pkgTypes: map[string]map[string]*goType{},
		types: map[string][]*goType{}, members: map[string]bool{}, idents: map[string]bool{},
		funcs: map[string]map[string]bool{}, words: map[string]bool{}, testWords: map[string]bool{}, httpPaths: map[string]bool{},
		files: map[string]bool{}, dirs: map[string]bool{}, subs: map[string]bool{},
		flags: map[string]bool{}, anyFlag: map[string]bool{}, workloads: map[string]bool{},
		targets: map[string]bool{}, stdlib: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			tr.dirs[rel] = true
			return nil
		}
		tr.files[rel] = true
		if strings.HasSuffix(rel, ".go") && !strings.Contains(rel, "/testdata/") {
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			// This file's strings are the names it checks for, and the
			// design guards' the names they keep out (slow_cell among
			// them): they must not resolve a doc's name.
			tr.indexFile(path.Dir(rel), strings.HasSuffix(rel, "_test.go"), rel != "docs_test.go" && rel != "guards_test.go", f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, byName := range tr.pkgTypes {
		for name, gt := range byName {
			tr.types[name] = append(tr.types[name], gt)
		}
	}

	golden, err := os.ReadFile("cmd/surw/testdata/flags.golden")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		tr.flags[line] = true
	}
	for f := range tr.files {
		if strings.HasSuffix(f, ".golden") {
			src, _ := os.ReadFile(f)
			for _, m := range typeLineRE.FindAllStringSubmatch(string(src), -1) {
				tr.families = append(tr.families, m[1])
			}
		}
	}
	type named []struct{ Name string }
	var spec struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(src, &spec); err != nil {
		return nil, err
	}
	for _, w := range spec.Workloads {
		tr.workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		tr.metrics = append(tr.metrics, m.Name)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	for _, m := range targetRE.FindAllStringSubmatch(string(mk), -1) {
		tr.targets[m[1]] = true
	}
	// Standard-library package names: what a span may be qualified by
	// without naming this module.
	std := filepath.Join(build.Default.GOROOT, "src")
	err = filepath.WalkDir(std, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch d.Name() {
		case "testdata", "internal", "vendor", "cmd":
			return filepath.SkipDir
		}
		tr.stdlib[d.Name()] = true
		return nil
	})
	return tr, err
}

// indexFile records what one Go file declares and spells.
func (tr *tree) indexFile(dir string, test, strs bool, f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if tr.pkgDecls[pkg] == nil {
		tr.pkgDecls[pkg] = map[string]bool{}
		tr.pkgTypes[pkg] = map[string]*goType{}
	}
	typeOf := func(name string) *goType {
		gt := tr.pkgTypes[pkg][name]
		if gt == nil {
			gt = &goType{members: map[string]bool{}}
			tr.pkgTypes[pkg][name] = gt
		}
		return gt
	}
	fieldsOf := func(gt *goType, fl *ast.FieldList) {
		for _, fd := range fl.List {
			for _, n := range fd.Names {
				gt.members[n.Name] = true
				tr.members[n.Name] = true
			}
			if len(fd.Names) == 0 {
				if name := baseTypeName(fd.Type); name != "" {
					gt.members[name] = true
					gt.embedded = append(gt.embedded, name)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				if name := baseTypeName(d.Recv.List[0].Type); name != "" {
					typeOf(name).members[d.Name.Name] = true
					tr.members[d.Name.Name] = true
				}
				continue
			}
			tr.pkgDecls[pkg][d.Name.Name] = true
			tr.decls[d.Name.Name] = true
			if test && testRE.MatchString(d.Name.Name) {
				if tr.funcs[dir] == nil {
					tr.funcs[dir] = map[string]bool{}
				}
				tr.funcs[dir][d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					tr.pkgDecls[pkg][s.Name.Name] = true
					tr.decls[s.Name.Name] = true
					gt := typeOf(s.Name.Name)
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fieldsOf(gt, ty.Fields)
					case *ast.InterfaceType:
						fieldsOf(gt, ty.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						tr.pkgDecls[pkg][n.Name] = true
						tr.decls[n.Name] = true
					}
					if dir == "cmd/surw" && s.Names[0].Name == "subcommands" && len(s.Values) == 1 {
						tr.indexSubcommands(s.Values[0])
					}
				}
			}
		}
	}
	flagDefs := map[string]int{"Bool": 0, "String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Float64": 0, "Duration": 0, "Func": 0, "Var": 1,
		"BoolVar": 1, "StringVar": 1, "IntVar": 1, "Int64Var": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			tr.idents[n.Name] = true
		case *ast.StructType:
			for _, fd := range n.Fields.List { // fields of unnamed structs
				for _, id := range fd.Names {
					tr.members[id.Name] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if i, ok := flagDefs[sel.Sel.Name]; ok && len(n.Args) > i {
					if lit, ok := n.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						tr.anyFlag[name] = true
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING || !strs {
				break
			}
			s, err := strconv.Unquote(n.Value)
			if err != nil {
				break
			}
			words := tr.words
			if test {
				words = tr.testWords
			}
			for _, w := range wordRE.FindAllString(s, -1) {
				words[w] = true
			}
			if !test && strings.HasPrefix(s, "/") {
				tr.httpPaths[s] = true
			}
		}
		return true
	})
}

// indexSubcommands records the keys of cmd/surw's subcommand table.
func (tr *tree) indexSubcommands(table ast.Expr) {
	lit, _ := table.(*ast.CompositeLit)
	if lit == nil {
		return
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.BasicLit); ok {
				name, _ := strconv.Unquote(key.Value)
				tr.subs[name] = true
			}
		}
	}
}

// baseTypeName is the name of the type an expression names, past pointers,
// qualifiers and type arguments.
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	}
	return ""
}

// check returns the unresolved references of one document's text.
func (tr *tree) check(doc, text string) []docProblem {
	var out []docProblem
	report := func(line int, span, key, why string) {
		out = append(out, docProblem{doc, line, span, key, why})
	}
	lines := strings.Split(text, "\n")
	var para []string
	paraStart := 0
	flush := func() {
		tr.checkParagraph(para, paraStart, report)
		para = nil
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if fence := strings.TrimLeft(l, " "); strings.HasPrefix(fence, "```") {
			flush()
			lang := strings.TrimSpace(strings.TrimLeft(fence, "`"))
			j := i + 1
			for ; j < len(lines) && !strings.HasPrefix(strings.TrimLeft(lines[j], " "), "```"); j++ {
			}
			if lang == "" || lang == "bash" || lang == "sh" {
				tr.checkFence(lines[i+1:min(j, len(lines))], i+2, report)
			}
			i = j
			continue
		}
		if strings.TrimSpace(l) == "" {
			flush()
			continue
		}
		if para == nil {
			paraStart = i + 1
		}
		para = append(para, l)
	}
	flush()
	return out
}

// checkFence checks the command lines of a fenced block.
func (tr *tree) checkFence(lines []string, first int, report func(int, string, string, string)) {
	for i := 0; i < len(lines); i++ {
		at, cmd := first+i, lines[i]
		for strings.HasSuffix(cmd, `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(cmd, `\`) + " " + lines[i]
		}
		if j := strings.Index(cmd, " #"); j >= 0 {
			cmd = cmd[:j]
		}
		cmd = strings.TrimPrefix(strings.TrimSpace(cmd), "$ ")
		if cmd == "" || strings.HasPrefix(cmd, "#") {
			continue
		}
		tr.checkCommand(cmd, func(key, why string) { report(at, cmd, key, why) })
	}
}

// checkParagraph checks the code spans of one paragraph: a span may break
// across its lines.
func (tr *tree) checkParagraph(para []string, first int, report func(int, string, string, string)) {
	text := strings.Join(para, "\n")
	for i := 0; i < len(text); {
		if text[i] != '`' {
			i++
			continue
		}
		n := 1
		for i+n < len(text) && text[i+n] == '`' {
			n++
		}
		ticks := text[i : i+n]
		end := -1
		for j := i + n; j < len(text); {
			k := strings.Index(text[j:], ticks)
			if k < 0 {
				break
			}
			k += j
			if k+n < len(text) && text[k+n] == '`' { // a longer run: not the closer
				for j = k; j < len(text) && text[j] == '`'; j++ {
				}
				continue
			}
			end = k
			break
		}
		if end < 0 {
			i += n
			continue
		}
		span := strings.Join(strings.Fields(text[i+n:end]), " ")
		line := first + strings.Count(text[:i], "\n")
		tr.checkSpan(span, func(key, why string) { report(line, span, key, why) })
		i = end + n
	}
}

var (
	flagRE     = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)
	pathRE     = regexp.MustCompile(`^([\w./*{},@-]+?\.(?:go|s|golden|md|sh|mod)|Makefile)((?::[0-9–,-]+)?)$`)
	artifact   = regexp.MustCompile(`^[\w./*{}…-]+\.(json|jsonl|txt|svg|csv|html|out)$`)
	dirRE      = regexp.MustCompile(`^(?:surw/)?((?:internal|cmd|examples|surwsync|benchmark)(?:/[\w.-]+)*)/?$`)
	familyRE   = regexp.MustCompile(`^(surw_\w*?)(\*?)(?:\{.*\})?$`)
	httpRE     = regexp.MustCompile(`^(?:(?:GET|POST) )?(/(?:v1|api)/[\w/-]*|/metrics|/events|/buildinfo)$`)
	refRE      = regexp.MustCompile(`^(?:\[\])?\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\[[\w, ]+\])?(\(.*\))?(\*)?$`)
	testRE     = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	snakeRE    = regexp.MustCompile(`^[a-z]\w*_\w+$`)
	metricRE   = regexp.MustCompile(`^([a-z]+(?:\.[\w-]+)*)(?:\.\*|/_\w+)?$`)
	numbersRE  = regexp.MustCompile(`[0-9]+`)
	wordRE     = regexp.MustCompile(`\w+`)
	envRE      = regexp.MustCompile(`^[A-Z][A-Z0-9_]*=`)
	typeLineRE = regexp.MustCompile(`(?m)^# TYPE (surw_\w+)`)
	targetRE   = regexp.MustCompile(`(?m)^([\w.-]+):`)
)

// checkSpan resolves one inline code span.
func (tr *tree) checkSpan(span string, fail func(key, why string)) {
	if span == "" {
		return
	}
	if fields := strings.Fields(span); len(fields) > 1 && tr.subs[fields[0]] && flagRE.MatchString(fields[1]) {
		span = "surw " + span // `dash -addr`
	}
	if tr.checkCommand(span, fail) {
		return
	}
	if fields := strings.Fields(span); flagRE.MatchString(fields[0]) {
		for _, f := range fields {
			if m := flagRE.FindStringSubmatch(f); m != nil && !tr.anyFlag[m[1]] && !goFlags[m[1]] {
				fail("-"+m[1], "is no flag of surw, the benchmark harness or go test")
			}
		}
		return
	}
	if m := pathRE.FindStringSubmatch(span); m != nil {
		tr.checkPath(m[1], m[2], fail)
		return
	}
	if artifact.MatchString(span) || strings.HasPrefix(span, "DIR/") || strings.HasPrefix(span, "results/") {
		return
	}
	if m := dirRE.FindStringSubmatch(span); m != nil {
		if !tr.dirs[m[1]] {
			fail(m[1], "is no directory of the tree")
		}
		return
	}
	if m := familyRE.FindStringSubmatch(span); m != nil {
		for _, f := range tr.families {
			if f == m[1] || m[2] == "*" && strings.HasPrefix(f, m[1]) {
				return
			}
		}
		fail(m[1]+m[2], "is no family of a golden /metrics page")
		return
	}
	if m := httpRE.FindStringSubmatch(span); m != nil {
		if !tr.httpPaths[m[1]] {
			fail(m[1], "is served by no handler")
		}
		return
	}
	if m := metricRE.FindStringSubmatch(span); m != nil && strings.Contains(span, ".") {
		if tr.isMetric(m[1]) {
			return
		}
		if strings.Contains(m[1], "_") {
			fail(m[1], "is no metric of BENCHMARK.json")
			return
		}
	}
	if m := testRE.FindString(span); m != "" {
		rest := span[len(m):]
		switch {
		case rest == "*":
			if !tr.anyFunc(func(f string) bool { return strings.HasPrefix(f, m) }) {
				fail(m+"*", "matches no test function")
			}
		case rest == "" || strings.HasPrefix(rest, "/") || strings.HasPrefix(rest, "."):
			if !tr.anyFunc(func(f string) bool { return f == m }) && !tr.decls[m] {
				fail(m, "is no test function")
			}
		}
		return
	}
	if snakeRE.MatchString(span) {
		stem := strings.TrimRight(span, "0123456789") // pending_20000: "pending_%d"
		if !tr.words[span] && !tr.words[stem] && !tr.testWords[span] && !tr.testWords[stem] &&
			!tr.idents[span] && !tr.workloads[span] && !tr.isMetric(span) {
			fail(span, "is no metric, workload or string of the code")
		}
		return
	}
	if m := refRE.FindStringSubmatch(span); m != nil {
		tr.checkRef(m[1], fail)
	}
}

// checkRef resolves a dotted Go name.
func (tr *tree) checkRef(name string, fail func(key, why string)) {
	parts := strings.Split(name, ".")
	head := parts[0]
	if len(parts) == 1 {
		if hasLower(head) && hasUpper(head) && !tr.idents[head] && !tr.words[head] {
			fail(head, "is spelled nowhere in the Go code")
		}
		return
	}
	if len(parts[1]) == 1 && unicode.IsUpper(rune(parts[1][0])) {
		return // a placeholder: surwsync.X
	}
	switch decls := tr.pkgDecls[head]; {
	case decls != nil && head != "main":
		if !decls[parts[1]] {
			fail(strings.Join(parts[:2], "."), "is not declared in package "+head)
		} else if len(parts) > 2 && !tr.hasMember(tr.pkgTypes[head][parts[1]], parts[2], 0) {
			fail(strings.Join(parts[:3], "."), "is no method or field of "+head+"."+parts[1])
		}
	case tr.stdlib[head]:
	case unicode.IsUpper(rune(head[0])):
		if len(tr.types[head]) == 0 {
			fail(head, "is no type of this module")
			return
		}
		for _, gt := range tr.types[head] {
			if tr.hasMember(gt, parts[1], 0) {
				return
			}
		}
		fail(head+"."+parts[1], "is no method or field of "+head)
	default: // a receiver or variable: the member must exist on some type
		if !tr.members[parts[1]] {
			fail(head+"."+parts[1], "names no method or field of this module")
		}
	}
}

// hasMember reports whether gt has member m, directly or promoted from an
// embedded type (by name, any package, a few levels deep).
func (tr *tree) hasMember(gt *goType, m string, depth int) bool {
	if gt == nil || depth > 3 {
		return false
	}
	if gt.members[m] {
		return true
	}
	for _, e := range gt.embedded {
		for _, et := range tr.types[e] {
			if tr.hasMember(et, m, depth+1) {
				return true
			}
		}
	}
	return false
}

func (tr *tree) anyFunc(match func(string) bool) bool {
	for _, names := range tr.funcs {
		for f := range names {
			if match(f) {
				return true
			}
		}
	}
	return false
}

// checkPath resolves a file path, a suffix of one, or a glob, and its line
// numbers.
func (tr *tree) checkPath(p, lines string, fail func(key, why string)) {
	if strings.HasPrefix(p, "DIR/") {
		return
	}
	need := 0
	for _, n := range numbersRE.FindAllString(lines, -1) {
		if v, _ := strconv.Atoi(n); v > need {
			need = v
		}
	}
	for _, pat := range expandBraces(p) {
		longest, found := 0, false
		for f := range tr.files {
			segs := strings.Split(f, "/")
			k := strings.Count(pat, "/") + 1
			if k > len(segs) {
				continue
			}
			if ok, _ := path.Match(pat, strings.Join(segs[len(segs)-k:], "/")); ok {
				found = true
				if need > 0 {
					src, _ := os.ReadFile(f)
					n := strings.Count(string(src), "\n")
					if len(src) > 0 && src[len(src)-1] != '\n' {
						n++
					}
					longest = max(longest, n)
				}
			}
		}
		switch {
		case !found:
			fail(pat, "is no file of the tree")
		case need > longest:
			fail(p+lines, fmt.Sprintf("is past the end (%d lines)", longest))
		}
	}
}

func expandBraces(p string) []string {
	i := strings.Index(p, "{")
	j := strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}

// goFlags are the go command's flags the docs use.
var goFlags = map[string]bool{"race": true, "short": true, "run": true, "bench": true, "benchtime": true,
	"benchmem": true, "count": true, "cover": true, "fuzz": true, "fuzztime": true, "fuzzminimizetime": true,
	"memprofilerate": true, "cpuprofile": true, "memprofile": true, "skip": true, "timeout": true, "v": true,
	"C": true, "o": true, "cpu": true, "h": true, "help": true}

// checkCommand checks a shell command line if it runs surw, go test, make
// or the benchmark harness, and reports whether it did.
func (tr *tree) checkCommand(cmd string, fail func(key, why string)) bool {
	words := shellWords(cmd)
	recognised := false
	for len(words) > 0 {
		end := len(words)
		for i, w := range words {
			if w == "&&" || w == "||" || w == ";" || w == "|" {
				end = i
				break
			}
		}
		if tr.checkSimpleCommand(words[:end], fail) {
			recognised = true
		}
		words = words[min(end+1, len(words)):]
	}
	return recognised
}

func (tr *tree) checkSimpleCommand(w []string, fail func(key, why string)) bool {
	for len(w) > 0 && envRE.MatchString(w[0]) {
		w = w[1:] // GOARCH=arm64 go vet …
	}
	at := func(i int, s string) bool { return len(w) > i && w[i] == s }
	switch {
	case at(0, "go") && at(1, "run") && at(2, "./cmd/surw"):
		tr.checkSurw(w[3:], fail)
	case len(w) > 0 && (w[0] == "surw" || strings.HasSuffix(w[0], "/surw")):
		tr.checkSurw(w[1:], fail)
	case at(0, "go") && at(1, "test"):
		tr.checkGoTest(w[2:], fail)
	case at(0, "go") && at(1, "run") && at(2, "-C") && at(3, "benchmark"):
		for i := 4; i < len(w); i++ {
			if m := flagRE.FindStringSubmatch(w[i]); m != nil {
				if !tr.anyFlag[m[1]] {
					fail("-"+m[1], "is no flag of the benchmark harness")
				} else if m[1] == "workload" && i+1 < len(w) && len(w[i+1]) > 1 && !tr.workloads[w[i+1]] {
					fail(w[i+1], "is no workload of BENCHMARK.json")
				}
			}
		}
	case at(0, "go") && (at(1, "run") || at(1, "build") || at(1, "vet")):
		for _, a := range w[2:] {
			if dir := strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/"); strings.HasPrefix(a, "./") && !strings.Contains(a, "...") && !tr.dirs[dir] {
				fail(a, "is no package directory of the tree")
			}
		}
	case at(0, "make") && len(w) > 1:
		if !tr.targets[w[1]] {
			fail("make "+w[1], "is no Makefile target")
		}
	default:
		return false
	}
	return true
}

func (tr *tree) checkSurw(args []string, fail func(key, why string)) {
	if len(args) == 0 || !isWord(args[0]) {
		return // `surw <sub>: …`, `surw …`
	}
	sub := args[0]
	if !tr.subs[sub] {
		fail(sub, "is no surw subcommand")
		return
	}
	for _, a := range args[1:] {
		m := flagRE.FindStringSubmatch(a)
		if m != nil && m[1] != "h" && m[1] != "help" && !tr.flags[sub+" -"+m[1]] {
			fail(sub+" -"+m[1], "is not in cmd/surw/testdata/flags.golden")
		}
	}
}

// checkGoTest resolves the -run, -bench and -fuzz patterns of a go test
// command against the test functions of the packages it names.
func (tr *tree) checkGoTest(args []string, fail func(key, why string)) {
	base, pkgs := "", []string{}
	patterns := map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		m := flagRE.FindStringSubmatch(a)
		if m == nil {
			if a != "..." {
				pkgs = append(pkgs, a)
			}
			continue
		}
		val := strings.TrimPrefix(m[2], "=")
		switch m[1] {
		case "run", "bench", "fuzz", "skip", "C", "benchtime", "count", "fuzztime", "fuzzminimizetime",
			"memprofilerate", "cpuprofile", "memprofile", "timeout", "cpu", "o":
			if m[2] == "" && i+1 < len(args) {
				i++
				val = args[i]
			}
		}
		switch m[1] {
		case "run", "bench", "fuzz", "skip":
			patterns[m[1]] = val
		case "C":
			base = val
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var names []string
	for _, p := range pkgs {
		dir := path.Clean(path.Join(base, p))
		rec := strings.HasSuffix(dir, "...")
		dir = strings.TrimSuffix(strings.TrimSuffix(dir, "..."), "/")
		for d, fs := range tr.funcs {
			if d == dir || rec && (dir == "." || dir == "" || strings.HasPrefix(d, dir+"/")) {
				for f := range fs {
					names = append(names, f)
				}
			}
		}
	}
	kinds := map[string]string{"run": "Test|Fuzz|Example", "skip": "Test|Fuzz|Example", "bench": "Benchmark", "fuzz": "Fuzz"}
	for flag, pat := range patterns {
		if pat == "^$" || pat == "." {
			continue
		}
		kind := regexp.MustCompile(`^(` + kinds[flag] + `)`)
		for _, alt := range strings.Split(strings.Split(pat, "/")[0], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				fail("-"+flag+" "+alt, "is not a valid pattern")
				continue
			}
			found := false
			for _, n := range names {
				if kind.MatchString(n) && re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				fail("-"+flag+" "+alt, "matches no function in "+strings.Join(pkgs, " "))
			}
		}
	}
}

// shellWords splits a command line into words, quotes removed.
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case unicode.IsSpace(r):
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

func isWord(s string) bool {
	for _, r := range s {
		if !unicode.IsLower(r) {
			return false
		}
	}
	return s != ""
}

func hasLower(s string) bool { return strings.IndexFunc(s, unicode.IsLower) >= 0 }
func hasUpper(s string) bool { return strings.IndexFunc(s, unicode.IsUpper) >= 0 }

// isMetric reports whether name is a BENCHMARK.json metric or a dotted
// prefix of one.
func (tr *tree) isMetric(name string) bool {
	for _, m := range tr.metrics {
		if m == name || strings.HasPrefix(m, name+".") {
			return true
		}
	}
	return false
}

// TestMeasuredTablesQuoteResults: EXPERIMENTS.md publishes what the build
// writes. A Measured table — one whose introducing paragraph starts with
// "Measured" — names its results/ file in that paragraph, and each of its
// numbers equals the one in the file's cell at the same row (found by the
// first cell) and column (found by the header).
func TestMeasuredTablesQuoteResults(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables, problems := checkMeasured(string(text))
	for _, p := range problems {
		t.Error(p)
	}
	// Figure 2, Tables 1-4 and Figure 5.
	if tables < 6 {
		t.Errorf("%d Measured tables checked, want one per published table or figure", tables)
	}
}

// A number changed in any row of any Measured table is reported.
func TestMeasuredCheckerCatchesPlantedNumber(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	planted := 0
	for _, tb := range measuredTables(lines) {
		for _, at := range tb.rows {
			cells := strings.Split(lines[at], "|")
			loc := docNumber.FindStringIndex(cells[2])
			if loc == nil {
				continue
			}
			cells[2] = cells[2][:loc[0]] + "9" + cells[2][loc[0]:]
			mutated := slices.Clone(lines)
			mutated[at] = strings.Join(cells, "|")
			_, problems := checkMeasured(strings.Join(mutated, "\n"))
			if !slices.ContainsFunc(problems, func(p string) bool { return strings.HasPrefix(p, fmt.Sprintf("EXPERIMENTS.md:%d: ", at+1)) }) {
				t.Errorf("EXPERIMENTS.md:%d: a number planted in %q is not reported", at+1, mutated[at])
			}
			planted++
		}
	}
	if planted < 6 {
		t.Errorf("planted %d numbers, want one in a row of every Measured table", planted)
	}
}

var (
	// docNumber is a number as a table writes it: 35, 6.51, 5.5e-10.
	docNumber = regexp.MustCompile(`\d+(?:\.\d+)?(?:e[-+]\d+)?`)
	// resultsFile is a results/ file named in a paragraph.
	resultsFile = regexp.MustCompile("`(results/[\\w.]+)`")
	// columnGap separates the columns of a report.Table's text.
	columnGap = regexp.MustCompile(`\s{2,}`)
)

// measuredTable is one Measured table: the line it starts at, the
// results/ files its paragraph names, its header cells and the lines of its
// body rows (0-based line indices).
type measuredTable struct {
	line   int
	files  []string
	header []string
	rows   []int
}

// measuredTables finds the Markdown tables whose introducing paragraph (the
// last one before the table, fenced blocks skipped) starts with "Measured".
func measuredTables(lines []string) []measuredTable {
	var out []measuredTable
	var para string
	fenced, prevBlank := false, true
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(strings.TrimLeft(l, " "), "```"):
			fenced, prevBlank = !fenced, true
		case fenced:
		case strings.HasPrefix(l, "|"):
			tb := measuredTable{line: i, header: tableCells(l)}
			for i++; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
				if i > tb.line+1 {
					tb.rows = append(tb.rows, i)
				}
			}
			i--
			if strings.HasPrefix(para, "Measured") {
				for _, m := range resultsFile.FindAllStringSubmatch(para, -1) {
					tb.files = append(tb.files, m[1])
				}
				out = append(out, tb)
			}
			para, prevBlank = "", true
		case strings.TrimSpace(l) == "":
			prevBlank = true
		default:
			if prevBlank {
				para = ""
			}
			para, prevBlank = strings.TrimSpace(para+" "+l), false
		}
	}
	return out
}

// tableCells splits a Markdown table row into its trimmed cells, bold
// markers and code quotes removed.
func tableCells(row string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(strings.NewReplacer("**", "", "`", "").Replace(c))
	}
	return cells
}

// checkMeasured checks every Measured table of an EXPERIMENTS.md text
// against the results/ files and returns how many tables it checked.
func checkMeasured(text string) (int, []string) {
	lines := strings.Split(text, "\n")
	tables := measuredTables(lines)
	var problems []string
	for _, tb := range tables {
		at := fmt.Sprintf("EXPERIMENTS.md:%d", tb.line+1)
		if len(tb.files) != 1 {
			problems = append(problems, fmt.Sprintf("%s: a Measured table names %d results/ files above it, want one", at, len(tb.files)))
			continue
		}
		header, rows, err := readResultsTable(tb.files[0])
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", at, err))
			continue
		}
		for _, r := range tb.rows {
			cells := tableCells(lines[r])
			at := fmt.Sprintf("EXPERIMENTS.md:%d", r+1)
			got, ok := rows[cells[0]]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: %s has no row %q", at, tb.files[0], cells[0]))
				continue
			}
			for j := 1; j < len(cells) && j < len(tb.header); j++ {
				col := slices.Index(header, tb.header[j])
				if col < 1 {
					problems = append(problems, fmt.Sprintf("%s: %s has no column %q", at, tb.files[0], tb.header[j]))
					continue
				}
				if want := docNumber.FindAllString(got[col], -1); !slices.Equal(docNumber.FindAllString(cells[j], -1), want) {
					problems = append(problems, fmt.Sprintf("%s: %s/%s reads %q, %s has %q", at, cells[0], tb.header[j], cells[j], tb.files[0], got[col]))
				}
			}
		}
	}
	return len(tables), problems
}

// readResultsTable reads the table of a results/ file: a .csv whole, a .txt
// as report.Table renders it (the header above the line of dashes, columns
// two or more spaces apart, rows up to the first footer). Rows are keyed by
// their first cell.
func readResultsTable(file string) (header []string, rows map[string][]string, err error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, nil, err
	}
	var records [][]string
	if strings.HasSuffix(file, ".csv") {
		if records, err = csv.NewReader(strings.NewReader(string(data))).ReadAll(); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", file, err)
		}
	} else {
		lines := strings.Split(string(data), "\n")
		for i := 1; i < len(lines); i++ {
			if dashes := strings.Trim(lines[i], "-"); dashes != "" || len(lines[i]) < 3 {
				continue
			}
			records = append(records, columnGap.Split(strings.TrimSpace(lines[i-1]), -1))
			for _, l := range lines[i+1:] {
				cells := columnGap.Split(strings.TrimSpace(l), -1)
				if len(cells) != len(records[0]) {
					break
				}
				records = append(records, cells)
			}
			break
		}
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("%s holds no table", file)
	}
	rows = map[string][]string{}
	for _, r := range records[1:] {
		rows[r[0]] = r
	}
	return records[0], rows, nil
}
