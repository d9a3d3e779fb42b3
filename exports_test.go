package surw_test

// Production code is what production runs. TestExportsHaveUsers fails on an
// exported function or method, in a non-test file of module surw, whose
// name no non-test file spells as an identifier outside that function's own
// declaration. The benchmark harness (benchmark/, its own module) and the
// examples count as users; test files do not, so code that only tests call
// belongs in a *_test.go file or a test-helper package.
//
// Exempt by rule:
//   - the public API: the root package, surwsync and examples/;
//   - test-helper packages, whose import path ends in "test";
//   - methods of the types the public API hands to users: the sched types
//     the root package names (its aliases, and the Chan and Ref that
//     surw.NewChan and surw.NewRef return), and sched.State, which an
//     Algorithm is handed;
//   - stdlib interface method names (stdlibMethods), which the standard
//     library calls for the program.
//
// The rule matches by name: a dead function whose name a live identifier
// spells elsewhere — another package's function, a field, a local — goes
// unreported. It reports no false failures; it misses some true ones.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportsAllowlist holds the only exported functions allowed no user, keyed
// as the guard reports them, with the reason. An entry nothing needs fails.
var exportsAllowlist = map[string]string{
	"obs.ReadBenchHistory": "ROADMAP item 23 gives it a reader (surw obs -bench-history) or deletes it",
}

// stdlibMethods are method names the standard library calls through its
// interfaces (fmt.Stringer, error, json and text marshalers, http.Handler,
// io.Writer, flag.Value, sort and heap).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true, "Set": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// goSource is one parsed Go file of the tree.
type goSource struct {
	rel  string // slash path from the repository root
	src  []byte
	file *ast.File
}

func TestExportsHaveUsers(t *testing.T) {
	fset, srcs := parseSources(t)
	for _, p := range unusedExports(fset, srcs, exportsAllowlist) {
		t.Error(p)
	}
}

// An unused exported function, an unused exported method and a stale
// allowlist entry, planted beside the real tree, must each be reported.
func TestExportsGuardCatchesPlanted(t *testing.T) {
	fset, srcs := parseSources(t)
	const planted = `package obs

type plantedType struct{}

func PlantedFunc() { PlantedFunc() }

func (plantedType) PlantedMethod() {}

func use() { _ = plantedType{} }
`
	f, err := parser.ParseFile(fset, "internal/obs/planted.go", planted, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, goSource{rel: "internal/obs/planted.go", src: []byte(planted), file: f})
	allow := map[string]string{"obs.NoSuchFunc": "planted stale entry"}
	for k, v := range exportsAllowlist {
		allow[k] = v
	}
	got := strings.Join(unusedExports(fset, srcs, allow), "\n")
	for _, want := range []string{"obs.PlantedFunc:", "obs.plantedType.PlantedMethod:", `"obs.NoSuchFunc"`} {
		if !strings.Contains(got, want) {
			t.Errorf("planted %s not reported; the guard reported:\n%s", want, got)
		}
	}
}

// parseSources parses every Go file under the working directory, the
// repository root, testdata/ excepted.
func parseSources(t *testing.T) (*token.FileSet, []goSource) {
	t.Helper()
	fset := token.NewFileSet()
	var srcs []goSource
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		srcs = append(srcs, goSource{filepath.ToSlash(p), src, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, srcs
}

// unusedExports returns one line per exported function or method of module
// surw that has no user, and per allowlist entry that nothing needs.
func unusedExports(fset *token.FileSet, srcs []goSource, allow map[string]string) []string {
	// Every identifier a non-test file spells, by name, at its position;
	// a declaration's own name is not a use.
	uses := map[string][]token.Pos{}
	for _, s := range srcs {
		if strings.HasSuffix(s.rel, "_test.go") {
			continue
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range s.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}
	publicTypes := publicSchedTypes(srcs)
	publicTypes["State"] = true

	var out []string
	used := map[string]bool{}
	for _, s := range srcs {
		dir := path.Dir(s.rel)
		if strings.HasSuffix(s.rel, "_test.go") || exemptDir(dir) {
			continue
		}
		for _, d := range s.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := path.Base(dir) + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := baseTypeName(fd.Recv.List[0].Type)
				if stdlibMethods[fd.Name.Name] || dir == "internal/sched" && publicTypes[recv] {
					continue
				}
				key = path.Base(dir) + "." + recv + "." + fd.Name.Name
			}
			if slices.ContainsFunc(uses[fd.Name.Name], func(p token.Pos) bool { return p < fd.Pos() || p >= fd.End() }) {
				continue
			}
			if _, ok := allow[key]; ok {
				used[key] = true
				continue
			}
			out = append(out, fmt.Sprintf("%s: %s: exported, but no non-test file uses it", fset.Position(fd.Pos()), key))
		}
	}
	for key := range allow {
		if !used[key] {
			out = append(out, fmt.Sprintf("exportsAllowlist entry %q: it has a user, or no longer exists", key))
		}
	}
	slices.Sort(out)
	return out
}

// exemptDir reports whether the guard skips a directory's declarations: the
// public API, another module, and test helpers.
func exemptDir(dir string) bool {
	top, _, _ := strings.Cut(dir, "/")
	return dir == "." || dir == "surwsync" || top == "examples" || top == "benchmark" ||
		strings.HasSuffix(dir, "test")
}

// publicSchedTypes returns the sched names the root package spells (its
// type X = sched.Y aliases, and the Chan and Ref its NewChan and NewRef
// return): the types the public API hands to users.
func publicSchedTypes(srcs []goSource) map[string]bool {
	out := map[string]bool{}
	for _, s := range srcs {
		if path.Dir(s.rel) != "." || strings.HasSuffix(s.rel, "_test.go") {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sched" {
					out[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return out
}
