package memfs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// IsDir reports whether the path names a directory (false for files and
// missing paths).
func (f *FS) IsDir(path string) bool {
	parts, err := split(path)
	if err != nil {
		return false
	}
	n, ok := f.lookup(parts)
	return ok && n.isDir()
}

// Count returns the total number of entries (excluding the root).
func (f *FS) Count() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		total := len(n.children)
		for _, c := range n.children {
			total += walk(c)
		}
		return total
	}
	return walk(f.root)
}

func TestMkdirAndList(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	if err := fs.Mkdir("/x/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan mkdir: %v", err)
	}
	ls, err := fs.List("/")
	if err != nil || len(ls) != 1 || ls[0] != "a" {
		t.Fatalf("list / = %v, %v", ls, err)
	}
	ls, _ = fs.List("/a")
	if len(ls) != 1 || ls[0] != "b" {
		t.Fatalf("list /a = %v", ls)
	}
	if _, err := fs.List("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("list missing: %v", err)
	}
}

func TestRmdir(t *testing.T) {
	fs := New()
	fs.Mkdir("/a")
	fs.Mkdir("/a/b")
	if err := fs.Rmdir("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := fs.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double rmdir: %v", err)
	}
	if err := fs.Rmdir("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("rmdir root: %v", err)
	}
	if fs.Count() != 0 {
		t.Fatalf("count = %d", fs.Count())
	}
}

func TestExists(t *testing.T) {
	fs := New()
	fs.Mkdir("/a")
	if !fs.Exists("/") || !fs.Exists("/a") || fs.Exists("/b") {
		t.Fatal("Exists wrong")
	}
	if fs.Exists("/../etc") {
		t.Fatal("bad path must not exist")
	}
}

func TestBadPaths(t *testing.T) {
	fs := New()
	for _, p := range []string{"/a/../b", "/./x", "//a//b"} {
		if err := fs.Mkdir(p); err == nil {
			t.Fatalf("mkdir %q should fail", p)
		}
	}
	// Trailing and leading slashes are tolerated.
	if err := fs.Mkdir("a/"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/a") {
		t.Fatal("normalized path missing")
	}
}

// Property: a random interleaved sequence of mkdir/rmdir keeps Count equal
// to successes(mkdir) - successes(rmdir).
func TestCountInvariant(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		made, removed := 0, 0
		names := []string{"/a", "/b", "/a/c", "/b/d", "/e"}
		for _, isMk := range ops {
			p := names[rng.Intn(len(names))]
			if isMk {
				if fs.Mkdir(p) == nil {
					made++
				}
			} else {
				if fs.Rmdir(p) == nil {
					removed++
				}
			}
		}
		return fs.Count() == made-removed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitRoot(t *testing.T) {
	for _, p := range []string{"", "/", "//"} {
		if parts, err := split(p); err != nil || len(parts) != 0 {
			t.Fatalf("split(%q) = %v, %v", p, parts, err)
		}
	}
}

func TestFiles(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a.txt")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// Overwrite updates the content.
	if err := fs.WriteFile("/a.txt", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	if data, _ = fs.ReadFile("/a.txt"); string(data) != "world!" {
		t.Fatalf("overwrite lost: %q", data)
	}
	// Files in subdirectories need existing parents.
	if err := fs.WriteFile("/sub/b.txt", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan file: %v", err)
	}
	fs.Mkdir("/sub")
	if err := fs.WriteFile("/sub/b.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if fs.Count() != 3 {
		t.Fatalf("count = %d", fs.Count())
	}
}

func TestFileDirConfusion(t *testing.T) {
	fs := New()
	fs.Mkdir("/d")
	fs.WriteFile("/f", []byte("x"))
	if err := fs.WriteFile("/d", nil); !errors.Is(err, ErrIsDir) {
		t.Fatalf("overwrite dir: %v", err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir: %v", err)
	}
	if err := fs.Rmdir("/f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("rmdir file: %v", err)
	}
	if err := fs.Delete("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("delete dir: %v", err)
	}
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if !fs.IsDir("/d") || fs.IsDir("/nope") {
		t.Fatal("IsDir wrong")
	}
	// Paths through files do not resolve.
	fs.WriteFile("/g", []byte("x"))
	if fs.Exists("/g/sub") {
		t.Fatal("path through a file resolved")
	}
}

func TestTreeWithFiles(t *testing.T) {
	fs := New()
	fs.Mkdir("/d")
	fs.WriteFile("/d/a.txt", []byte("12345"))
	ls, _ := fs.List("/d")
	if len(ls) != 1 || ls[0] != "a.txt" {
		t.Fatalf("list = %v", ls)
	}
}

func TestReadFileIsolation(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("abc"))
	data, _ := fs.ReadFile("/a")
	data[0] = 'X'
	if again, _ := fs.ReadFile("/a"); string(again) != "abc" {
		t.Fatal("ReadFile aliases internal storage")
	}
}
