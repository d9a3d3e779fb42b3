package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"surw/internal/obs/promtest"
)

// surwBin is the one binary, built once with a stamped version. Tests go
// through it only for what needs a real process: the stamp itself, a
// crash-injected exit(3), and a kill -9.
var surwBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "surw-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	surwBin = filepath.Join(dir, "surw")
	build := exec.Command("go", "build", "-ldflags", "-X surw/internal/buildinfo.Version=test", "-o", surwBin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build surw: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The cells ci.sh's smokes used: small enough for seconds, large enough
// that every claim (resume, dedup, atlas) has something to bite on.
var (
	reorderCells  = []string{"-sct-targets", "CS/reorder_4", "-sct-algs", "SURW,RW", "-sessions", "3", "-limit", "300"}
	bitshiftCells = []string{"-sct-targets", "Fig1/bitshift_4", "-sct-algs", "URW,RW", "-sessions", "3", "-limit", "200", "-sct-coverage"}
)

// output is what one in-process subcommand left behind.
type output struct {
	stdout, stderr string
	code           int
}

// run drives one subcommand in-process to completion.
func run(args ...string) output { return runContext(context.Background(), args...) }

func runContext(ctx context.Context, args ...string) output {
	var stdout, stderr bytes.Buffer
	code := surw(ctx, args, &stdout, &stderr)
	return output{stdout.String(), stderr.String(), code}
}

// mustRun is run for a subcommand that has to succeed.
func mustRun(t *testing.T, args ...string) output {
	t.Helper()
	out := run(args...)
	if out.code != 0 {
		t.Fatalf("surw %s: exit %d\n%s", strings.Join(args, " "), out.code, out.stderr)
	}
	return out
}

// bench runs `surw bench -campaign dir ... -q sct` and returns dir's
// aggregates.json.
func bench(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	mustRun(t, append(append([]string{"bench", "-campaign", dir}, args...), "-q", "sct")...)
	return readFile(t, filepath.Join(dir, "aggregates.json"))
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reference runs a campaign cell set locally, once per test binary, and
// returns its store directory and aggregates.json: what every resumed,
// distributed, traced or atlas-carrying run of the same cells must equal.
func reference(t *testing.T, cells []string) (dir string, aggregates []byte) {
	t.Helper()
	key := strings.Join(cells, " ")
	if dir, ok := references[key]; ok {
		return dir, readFile(t, filepath.Join(dir, "aggregates.json"))
	}
	dir = filepath.Join(filepath.Dir(surwBin), fmt.Sprintf("ref%d", len(references)))
	aggregates = bench(t, dir, append([]string{"-workers", "2"}, cells...)...)
	references[key] = dir
	return dir, aggregates
}

// references maps a cell set to its reference store; the package's tests
// run one at a time, so nothing guards it.
var references = map[string]string{}

// watched is a stream another goroutine writes and the test waits on.
type watched struct {
	mu     sync.Mutex
	grown  *sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newWatched() *watched {
	w := &watched{}
	w.grown = sync.NewCond(&w.mu)
	return w
}

func (w *watched) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.grown.Broadcast()
	return w.buf.Write(p)
}

func (w *watched) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// close ends every wait: the writer is gone, nothing more will match.
func (w *watched) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.grown.Broadcast()
}

// waitFor blocks until re matches what was written so far and returns its
// submatches, or fails the test once the writer is gone without a match.
func (w *watched) waitFor(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if m := re.FindStringSubmatch(w.buf.String()); m != nil {
			return m
		}
		if w.closed {
			t.Fatalf("stream ended without %s:\n%s", re, w.buf.String())
		}
		w.grown.Wait()
	}
}

// proc is a subcommand running in-process on its own goroutine.
type proc struct {
	stdout, stderr *watched
	cancel         context.CancelFunc
	exit           chan int
}

// start launches a subcommand and arranges for the test to stop it.
func start(t *testing.T, args ...string) *proc {
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{stdout: newWatched(), stderr: newWatched(), cancel: cancel, exit: make(chan int, 1)}
	go func() {
		p.exit <- surw(ctx, args, p.stdout, p.stderr)
		p.stdout.close()
		p.stderr.close()
	}()
	t.Cleanup(func() {
		cancel()
		p.stderr.waitClosed()
	})
	return p
}

func (w *watched) waitClosed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed {
		w.grown.Wait()
	}
}

// wait blocks until the subcommand returns, and requires exit code 0.
func (p *proc) wait(t *testing.T) {
	t.Helper()
	if code := <-p.exit; code != 0 {
		t.Fatalf("exit %d\n%s", code, p.stderr)
	}
}

// url waits for the listen helper to announce what ("dashboard",
// "coordinator", "metrics", "pprof") and returns the bound base URL.
func (p *proc) url(t *testing.T, what string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^surw [^\n]*: ` + what + `[^\n]* serving on (http://[^/\s]+)/$`)
	return p.stderr.waitFor(t, re)[1]
}

// get fetches url and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return resp, string(body)
}

// metricsPage fetches base/metrics and holds it to the Prometheus text
// format before handing it to the caller's own assertions.
func metricsPage(t *testing.T, base string) string {
	t.Helper()
	_, body := get(t, base+"/metrics")
	if err := promtest.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("%s/metrics: %v\n%s", base, err, body)
	}
	return body
}

// wantMatch fails the test unless every pattern matches text.
func wantMatch(t *testing.T, what, text string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(p).MatchString(text) {
			t.Errorf("%s: no match for %q in:\n%s", what, p, text)
		}
	}
}

// binary runs the built surw binary to completion; code is -1 when it
// did not run at all.
func binary(args ...string) (stdout, stderr string, code int) {
	cmd := exec.Command(surwBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		return "", err.Error(), -1
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}
