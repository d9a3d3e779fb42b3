package obs

// Trace exporters: a schedule captured by a Collector renders as Chrome
// trace_event JSON, which Perfetto and chrome://tracing open directly with
// one track per virtual thread, or as the flight record's decisions. The
// same pretty-printed JSON encoder backs the flight recorder and surw prof
// -json.

import (
	"encoding/json"
	"fmt"
	"io"
)

// RecordJSON is the wire form of a Record: a flight record's decisions.
type RecordJSON struct {
	Step      int    `json:"step"`
	TID       int    `json:"tid"`
	Path      string `json:"path"`
	Seq       int    `json:"seq"`
	Kind      string `json:"kind"`
	Obj       string `json:"obj,omitempty"`
	Enabled   int    `json:"enabled"`
	Consulted bool   `json:"consulted,omitempty"`
	Annot     string `json:"annot,omitempty"`
}

func (r *Record) toJSON() RecordJSON {
	return RecordJSON{
		Step:      r.Step,
		TID:       r.TID,
		Path:      r.Path,
		Seq:       r.Seq,
		Kind:      r.Kind.String(),
		Obj:       r.Obj,
		Enabled:   r.Enabled,
		Consulted: r.Consulted,
		Annot:     r.Annot(),
	}
}

// WriteJSON pretty-prints v as JSON with a trailing newline (the encoding
// every JSON artifact of this repository shares).
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// chromeEvent is one entry of the Chrome trace_event format's JSON Object
// Format. ts/dur are in microseconds; we map one scheduler step to 1 µs so
// the event index doubles as the timestamp.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int            `json:"ts"`
	Dur  int            `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the collector's held records in Chrome
// trace_event JSON: one complete ("X") event per scheduling decision on the
// chosen thread's track, with thread-name metadata mapping each track to
// its stable logical path. Perfetto (ui.perfetto.dev) and chrome://tracing
// open the output directly.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "surw schedule (alg=" + c.Algorithm() + ")"},
	})
	for tid := 0; tid < c.Threads(); tid++ {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("T%d path=%s", tid, c.ThreadPath(tid))},
		})
	}
	for i := 0; i < c.Len(); i++ {
		r := c.Record(i)
		name := r.Kind.String()
		if r.Obj != "" {
			name += "(" + r.Obj + ")"
		}
		args := map[string]any{
			"step":    r.Step,
			"seq":     r.Seq,
			"enabled": r.Enabled,
		}
		if r.Consulted {
			args["consulted"] = true
		}
		if a := r.Annot(); a != "" {
			args["annot"] = a
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Ph: "X", TS: r.Step, Dur: 1, PID: 0, TID: r.TID, Args: args,
		})
	}
	return WriteJSON(w, &tr)
}

// ValidateChromeTrace checks that r holds well-formed Chrome trace_event
// JSON as produced by WriteChromeTrace: parseable, a non-empty traceEvents
// array, every event carrying a name and phase, and at least one complete
// ("X") event with a duration. It backs `surw obs -check-trace`.
func ValidateChromeTrace(r io.Reader) error {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no traceEvents")
	}
	slices := 0
	for i, ev := range tr.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			return fmt.Errorf("obs: traceEvents[%d] lacks name or ph", i)
		}
		if ev.Ph == "X" {
			if ev.Dur <= 0 {
				return fmt.Errorf("obs: traceEvents[%d] is a complete event with no duration", i)
			}
			slices++
		}
	}
	if slices == 0 {
		return fmt.Errorf("obs: trace has no complete (ph=X) events")
	}
	return nil
}
