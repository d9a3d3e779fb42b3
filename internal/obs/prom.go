package obs

// Prom is the one writer of the Prometheus text exposition format (version
// 0.0.4) in this repository: HELP/TYPE lines, label escaping, number
// formatting, the histogram family and the rule that an empty family is
// not declared live here and nowhere else (TestDesignGuards holds that). It
// renders plain snapshot values — Snapshot, campaign.RemoteStatus,
// campaign.HealthReport, the dashboard's rollups — so there is no registry
// of live counter objects: a value's only home is the snapshot struct its
// JSON form also comes from. promtest.Lint tests every page it writes.

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// PrometheusContentType is the content type of the text exposition format;
// scrapers key their parser on the version parameter.
const PrometheusContentType = "text/plain; version=0.0.4"

// PromHandler serves the page that write renders, under the exposition
// content type.
func PromHandler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = write(w) // the only failure is a scraper that hung up
	})
}

// Prom accumulates one page, or one stretch of one. Counter, Gauge and
// Histogram declare a family, in page order; samples are written through
// the family, in any order, so a renderer can declare what a kind of item
// contributes and then walk its items once. A sample cannot precede or
// lack its HELP and TYPE, and a family nothing was written to is left off
// the page. The zero value is ready.
type Prom struct{ families []*PromFamily }

// PromFamily is one declared family: its HELP and TYPE lines, then its
// samples.
type PromFamily struct {
	name string
	buf  []byte
	head int // len(buf) when declared
}

// Counter declares a counter family; its name must end in _total.
func (p *Prom) Counter(name, help string) *PromFamily { return p.declare("counter", name, help) }

// Gauge declares a gauge family.
func (p *Prom) Gauge(name, help string) *PromFamily { return p.declare("gauge", name, help) }

func (p *Prom) declare(typ, name, help string) *PromFamily {
	f := &PromFamily{name: name, buf: []byte("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")}
	f.head = len(f.buf)
	p.families = append(p.families, f)
	return f
}

// Flush writes the families that have samples to w, in one Write.
func (p *Prom) Flush(w io.Writer) error {
	var page []byte
	for _, f := range p.families {
		if len(f.buf) > f.head {
			page = append(page, f.buf...)
		}
	}
	p.families = nil
	_, err := w.Write(page)
	return err
}

// Int writes an integer sample; labels are name, value pairs.
func (f *PromFamily) Int(v int64, labels ...string) {
	f.buf = append(strconv.AppendInt(f.open("", labels), v, 10), '\n')
}

// Bool writes 1 or 0.
func (f *PromFamily) Bool(v bool, labels ...string) {
	n := int64(0)
	if v {
		n = 1
	}
	f.Int(n, labels...)
}

// Float writes v in its shortest exact form.
func (f *PromFamily) Float(v float64, labels ...string) { f.float("", v, 'g', -1, labels) }

// Fixed writes v with prec decimals.
func (f *PromFamily) Fixed(v float64, prec int, labels ...string) { f.float("", v, 'f', prec, labels) }

func (f *PromFamily) float(suffix string, v float64, verb byte, prec int, labels []string) {
	f.buf = append(strconv.AppendFloat(f.open(suffix, labels), v, verb, prec, 64), '\n')
}

// labelEscaper holds the format's whole escape set: a scraper reads any
// other backslash sequence (Go's %q writes \t and \xff) as an error.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// open starts a sample line — the family name plus suffix, the label set
// and the space before the value — and returns the buffer to append the
// value to. Label values may come from outside the process (worker names
// over /v1/lease): invalid UTF-8 becomes U+FFFD.
func (f *PromFamily) open(suffix string, labels []string) []byte {
	b := append(append(f.buf, f.name...), suffix...)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		b = append(append(append(b, sep), labels[i]...), '=', '"')
		b = append(append(b, labelEscaper.Replace(strings.ToValidUTF8(labels[i+1], "\uFFFD"))...), '"')
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// Histogram declares a histogram family and writes each snap's cumulative
// _bucket series, labelled by operation and le, with its _sum and _count.
// The name should end in _seconds.
func (p *Prom) Histogram(name, help string, snaps []LatencySnap) {
	f := p.declare("histogram", name, help)
	count := func(suffix string, v uint64, labels ...string) {
		f.buf = append(strconv.AppendUint(f.open(suffix, labels), v, 10), '\n')
	}
	for _, s := range snaps {
		for _, b := range s.Buckets {
			count("_bucket", b.CumCount, "op", s.Op, "le", strconv.FormatFloat(b.LE, 'g', -1, 64))
		}
		// The +Inf bucket is mandatory and must equal the count.
		if n := len(s.Buckets); n == 0 || !math.IsInf(s.Buckets[n-1].LE, 1) {
			count("_bucket", s.Count, "op", s.Op, "le", "+Inf")
		}
		f.float("_sum", s.SumSeconds, 'g', -1, []string{"op", s.Op})
		count("_count", s.Count, "op", s.Op)
	}
}
