// Package promtest is the test-side checker for the Prometheus text
// exposition format (version 0.0.4) that every `/metrics` page of this
// repository must pass. It is deliberately stricter than a scraper needs
// to be — the point is keeping our own series consistent:
//
//   - every sample's family has a # HELP and # TYPE line before its first
//     sample, and at most one of each;
//   - TYPE values are legal (counter/gauge/histogram/summary/untyped);
//   - surw_* metric names match ^surw_[a-z0-9_]+$; counters end _total and
//     a family that ends _total is a counter;
//   - label values are quoted strings whose only escapes are \\, \" and \n
//     (a value may hold a brace or a comma; %q's \t or \xff is an error),
//     separated by exactly one comma;
//   - histogram families carry `le` labels on _bucket samples, cumulative
//     counts are nondecreasing per label set, the mandatory +Inf bucket is
//     present and equals the family's _count.
//
// It imports nothing of obs, so obs's own tests use it too.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	promNameRe     = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	promSurwNameRe = regexp.MustCompile(`^surw_[a-z0-9_]+$`)
)

// promFamily accumulates what the linter knows about one metric family.
type promFamily struct {
	help, typ  string
	sampleSeen bool
	// histogram bookkeeping, keyed by the label set minus `le`:
	buckets map[string][]promBucket
	counts  map[string]float64
	sums    map[string]bool
}

type promBucket struct {
	le  float64
	val float64
}

// baseFamily strips the histogram/summary sample suffixes so
// foo_bucket/foo_sum/foo_count group under foo when foo is declared as a
// histogram or summary.
func baseFamily(name string, fams map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := fams[base]; f != nil && (f.typ == "histogram" || f.typ == "summary") {
				return base
			}
		}
	}
	return name
}

// Lint reads a text-format metrics page and returns the first violation
// found, or nil if the page is clean.
func Lint(r io.Reader) error {
	fams := make(map[string]*promFamily)
	family := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{buckets: make(map[string][]promBucket),
				counts: make(map[string]float64), sums: make(map[string]bool)}
			fams[name] = f
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name, f := fields[2], family(fields[2])
			switch fields[1] {
			case "HELP":
				if f.help != "" {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					return fmt.Errorf("line %d: empty HELP text for %s", lineNo, name)
				}
				f.help = fields[3]
			case "TYPE":
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if f.sampleSeen {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE line for %s has no type", lineNo, name)
				}
				typ := strings.TrimSpace(fields[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = typ
				default:
					return fmt.Errorf("line %d: invalid TYPE %q for %s", lineNo, typ, name)
				}
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		name := promNameRe.FindString(line)
		if name == "" {
			return fmt.Errorf("line %d: unparseable sample %q", lineNo, line)
		}
		rest := line[len(name):]
		var labels promLabels
		if strings.HasPrefix(rest, "{") {
			var err error
			if labels, rest, err = parseLabels(rest[1:]); err != nil {
				return fmt.Errorf("line %d: sample %s: %v", lineNo, name, err)
			}
		}
		valStr := strings.Fields(rest)
		if len(valStr) == 0 {
			return fmt.Errorf("line %d: sample %s has no value", lineNo, name)
		}
		val, err := parsePromValue(valStr[0])
		if err != nil {
			return fmt.Errorf("line %d: sample %s: %v", lineNo, name, err)
		}

		base := baseFamily(name, fams)
		f := fams[base]
		if f == nil || f.typ == "" || f.help == "" {
			return fmt.Errorf("line %d: sample %s before HELP+TYPE for %s", lineNo, name, base)
		}
		f.sampleSeen = true

		if strings.HasPrefix(base, "surw") && !promSurwNameRe.MatchString(base) {
			return fmt.Errorf("line %d: surw metric %s violates ^surw_[a-z0-9_]+$", lineNo, base)
		}
		if f.typ == "counter" && !strings.HasSuffix(base, "_total") {
			return fmt.Errorf("line %d: counter %s must end in _total", lineNo, base)
		}
		if f.typ != "counter" && strings.HasSuffix(base, "_total") {
			return fmt.Errorf("line %d: %s ends in _total but is declared %s, not counter", lineNo, base, f.typ)
		}
		if val < 0 && (f.typ == "counter" || f.typ == "histogram") {
			return fmt.Errorf("line %d: %s %s has negative value %g", lineNo, f.typ, base, val)
		}

		if f.typ == "histogram" && base != name {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !labels.hasLE {
					return fmt.Errorf("line %d: histogram bucket %s lacks an le label", lineNo, name)
				}
				le, err := parsePromValue(labels.le)
				if err != nil {
					return fmt.Errorf("line %d: %s: bad le %q", lineNo, name, labels.le)
				}
				f.buckets[labels.key] = append(f.buckets[labels.key], promBucket{le: le, val: val})
			case strings.HasSuffix(name, "_count"):
				if labels.hasLE {
					return fmt.Errorf("line %d: %s carries an le label", lineNo, name)
				}
				f.counts[labels.key] = val
			case strings.HasSuffix(name, "_sum"):
				f.sums[labels.key] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Cross-sample histogram checks.
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.typ != "histogram" {
			continue
		}
		for key, bs := range f.buckets {
			last, lastLE := -1.0, math.Inf(-1)
			sawInf := false
			for _, b := range bs {
				if b.le < lastLE {
					return fmt.Errorf("histogram %s{%s}: le buckets out of order", name, key)
				}
				if b.val < last {
					return fmt.Errorf("histogram %s{%s}: cumulative counts decrease at le=%g", name, key, b.le)
				}
				last, lastLE = b.val, b.le
				if math.IsInf(b.le, 1) {
					sawInf = true
				}
			}
			if !sawInf {
				return fmt.Errorf("histogram %s{%s}: missing mandatory +Inf bucket", name, key)
			}
			count, ok := f.counts[key]
			if !ok {
				return fmt.Errorf("histogram %s{%s}: no _count sample", name, key)
			}
			if last != count {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, key, last, count)
			}
			if !f.sums[key] {
				return fmt.Errorf("histogram %s{%s}: no _sum sample", name, key)
			}
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return 0, fmt.Errorf("NaN sample value")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// promLabelRe is one name="value" pair and the comma after it, if any: the
// value a quoted string whose only escapes are the three the format
// defines, so a brace or a comma inside the quotes is data and %q's \t or
// \xff does not match.
var promLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\[\\"n])*)"(,?)`)

// promLabels is a sample's label set as the histogram checks need it.
type promLabels struct {
	key   string // the pairs other than le, sorted: the identity of a series
	le    string // the value of the le pair
	hasLE bool   // whether there is one: le="" is a bad bound, not a missing label
}

// parseLabels reads a label set from just after its opening brace and
// returns it with what follows the closing brace. A pair not followed by a
// comma must be the last; a comma may trail the last pair.
func parseLabels(s string) (l promLabels, rest string, err error) {
	var kept []string
	for !strings.HasPrefix(s, "}") {
		m := promLabelRe.FindStringSubmatch(s)
		if m == nil || m[3] == "" && !strings.HasPrefix(s[len(m[0]):], "}") {
			return l, "", fmt.Errorf(`bad or unterminated label set at %q (pairs are comma-separated; a value is a quoted string; its escapes are \\, \" and \n)`, s)
		}
		if m[1] == "le" {
			l.le, l.hasLE = m[2], true
		} else {
			kept = append(kept, strings.TrimSuffix(m[0], ","))
		}
		s = s[len(m[0]):]
	}
	sort.Strings(kept)
	l.key = strings.Join(kept, ",")
	return l, s[1:], nil
}
