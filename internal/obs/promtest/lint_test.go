package promtest

import "testing"

// A label set parses to its sorted non-le pairs, the le value and what
// follows the closing brace; a brace, a comma or an escaped quote inside a
// value is data.
func TestParseLabels(t *testing.T) {
	labels, rest, err := parseLabels(`w="a}b,c\"d\\e\nf",le="0.5",v="} 2"} 1`)
	if want := `v="} 2",w="a}b,c\"d\\e\nf"`; err != nil || rest != " 1" || labels.le != "0.5" || labels.key != want {
		t.Fatalf("parseLabels = %+v, rest %q, err %v; want key %s", labels, rest, err, want)
	}
}
