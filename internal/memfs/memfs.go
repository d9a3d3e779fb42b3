// Package memfs implements the in-memory hierarchical filesystem backing
// the FTP case study: a minimal directory tree with mkdir/rmdir/list and
// files.
package memfs

import (
	"errors"
	"sort"
	"strings"
)

// Well-known errors.
var (
	ErrExists   = errors.New("memfs: entry exists")
	ErrNotFound = errors.New("memfs: no such entry")
	ErrNotEmpty = errors.New("memfs: directory not empty")
	ErrBadPath  = errors.New("memfs: bad path")
	ErrIsDir    = errors.New("memfs: entry is a directory")
	ErrNotDir   = errors.New("memfs: entry is a file")
)

type node struct {
	children map[string]*node // nil for files
	data     []byte           // file content
}

func newNode() *node { return &node{children: make(map[string]*node)} }

func newFile(data []byte) *node { return &node{data: append([]byte(nil), data...)} }

func (n *node) isDir() bool { return n.children != nil }

// FS is a directory tree. It is a plain data structure with no internal
// locking: in the FTP model every operation runs inside one scheduled event,
// which provides the required mutual exclusion.
type FS struct {
	root *node
}

// New returns an empty filesystem containing only "/".
func New() *FS { return &FS{root: newNode()} }

// split normalizes a path into components; "" and "/" mean the root.
func split(path string) ([]string, error) {
	if path == "" || path == "/" {
		return nil, nil
	}
	path = strings.TrimPrefix(path, "/")
	path = strings.TrimSuffix(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, ErrBadPath
		}
	}
	return parts, nil
}

func (f *FS) lookup(parts []string) (*node, bool) {
	n := f.root
	for _, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return nil, false
		}
		n = c
	}
	return n, true
}

// parentAndName resolves a path to its parent directory node and leaf name.
func (f *FS) parentAndName(path string) (*node, string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrBadPath
	}
	parent, ok := f.lookup(parts[:len(parts)-1])
	if !ok || !parent.isDir() {
		return nil, "", ErrNotFound
	}
	return parent, parts[len(parts)-1], nil
}

// Mkdir creates a directory; its parent must exist and the entry must not.
func (f *FS) Mkdir(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrExists
	}
	parent, name, err := f.parentAndName(path)
	if err != nil {
		return err
	}
	if _, dup := parent.children[name]; dup {
		return ErrExists
	}
	parent.children[name] = newNode()
	return nil
}

// WriteFile creates or overwrites a file (FTP STOR). The parent directory
// must exist; overwriting a directory is an error.
func (f *FS) WriteFile(path string, data []byte) error {
	parent, name, err := f.parentAndName(path)
	if err != nil {
		return err
	}
	if existing, ok := parent.children[name]; ok && existing.isDir() {
		return ErrIsDir
	}
	parent.children[name] = newFile(data)
	return nil
}

// ReadFile returns a file's content (FTP RETR).
func (f *FS) ReadFile(path string) ([]byte, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	n, ok := f.lookup(parts)
	if !ok {
		return nil, ErrNotFound
	}
	if n.isDir() {
		return nil, ErrIsDir
	}
	return append([]byte(nil), n.data...), nil
}

// Delete removes a file (FTP DELE); directories need Rmdir.
func (f *FS) Delete(path string) error {
	parent, name, err := f.parentAndName(path)
	if err != nil {
		return err
	}
	child, ok := parent.children[name]
	if !ok {
		return ErrNotFound
	}
	if child.isDir() {
		return ErrIsDir
	}
	delete(parent.children, name)
	return nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadPath // cannot remove the root
	}
	parent, ok := f.lookup(parts[:len(parts)-1])
	if !ok {
		return ErrNotFound
	}
	name := parts[len(parts)-1]
	child, ok := parent.children[name]
	if !ok {
		return ErrNotFound
	}
	if !child.isDir() {
		return ErrNotDir
	}
	if len(child.children) != 0 {
		return ErrNotEmpty
	}
	delete(parent.children, name)
	return nil
}

// Exists reports whether the path names an entry (directory or file).
func (f *FS) Exists(path string) bool {
	parts, err := split(path)
	if err != nil {
		return false
	}
	_, ok := f.lookup(parts)
	return ok
}

// List returns the sorted names under a directory.
func (f *FS) List(path string) ([]string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	n, ok := f.lookup(parts)
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
