package obs

// The flight recorder: when a session hits its first failing schedule, the
// runner re-executes that schedule deterministically with a replay recorder
// and a ring collector attached, and dumps everything needed to reproduce
// the failure bit-exactly — seed, program seed, step budget, the recorded
// choice sequence, the interleaving fingerprint, and the last N scheduling
// decisions — as one JSON file under results/flight/. `surw run
// -replay-flight <file>` re-executes the dump through internal/replay and
// verifies the same bug fires with the same fingerprint.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// FlightVersion is the wire-format version stamped into every flight dump.
const FlightVersion = 1

// FlightRecord is the JSON wire form of one flight dump. It is
// self-describing: together with the target name it carries everything a
// bit-exact replay needs.
type FlightRecord struct {
	Version   int    `json:"version"`
	Target    string `json:"target"`
	Algorithm string `json:"algorithm"`

	// Coordinates of the failing schedule within its RunTarget batch.
	Session  int `json:"session"`
	Schedule int `json:"schedule"` // 0-based index within the session

	// Exact sched.Options of the failing schedule.
	Seed     int64 `json:"seed"`
	ProgSeed int64 `json:"prog_seed"`
	MaxSteps int   `json:"max_steps,omitempty"`

	// Delta names the interesting-event selection the schedule ran under
	// ("" when the algorithm ran with Δ = Γ or no profile).
	Delta string `json:"delta,omitempty"`

	// Recording is the replay.Recording string ("N:c0,c1,..."): the choice
	// the algorithm made at every consulted decision.
	Recording string `json:"recording"`

	// Failure identity and shape.
	BugID    string `json:"bug_id"`
	FailKind string `json:"fail_kind"`
	FailMsg  string `json:"fail_msg,omitempty"`
	FailStep int    `json:"fail_step"`

	Steps   int `json:"steps"`
	Threads int `json:"threads"`

	// Fingerprint is the hex InterleavingHash of the failing schedule under
	// the target's TraceFilter; a replay reproduces bit-exactly iff it
	// reaches the same BugID with the same fingerprint.
	Fingerprint string `json:"fingerprint"`

	// ClassFingerprint is the hex commutation-class fingerprint
	// (sched.Result.ClassHash) of the failing schedule. A flight record
	// that reproduces the interleaving must also reproduce its class; the
	// field additionally lets dedup tooling recognize when two distinct
	// failing interleavings are schedule-equivalent. Optional on the wire
	// (older dumps predate it); when present, replays verify it too.
	ClassFingerprint string `json:"class_fingerprint,omitempty"`

	// Reproduced records whether the capture re-run already matched the
	// original failure (it should always be true; false flags a
	// nondeterministic target).
	Reproduced bool `json:"reproduced"`

	// LastDecisions is the trailing window (up to FlightRingSize) of
	// scheduling decisions before the failure, with algorithm annotations.
	LastDecisions []RecordJSON `json:"last_decisions,omitempty"`
}

// sanitizeName maps a target name to a filename fragment.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// WriteFlight writes fr under dir (created if needed) and returns the file
// path. The filename encodes target, algorithm, session, and fingerprint,
// so repeated runs overwrite their own dump rather than accumulating.
func WriteFlight(dir string, fr *FlightRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: flight dir: %w", err)
	}
	name := fmt.Sprintf("flight_%s_%s_s%d_%s.json",
		sanitizeName(fr.Target), sanitizeName(fr.Algorithm), fr.Session, fr.Fingerprint)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := WriteJSON(f, fr); err != nil {
		f.Close()
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	return path, nil
}

// ReadFlight loads a flight dump written by WriteFlight.
func ReadFlight(path string) (*FlightRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read flight: %w", err)
	}
	fr := &FlightRecord{}
	if err := json.Unmarshal(data, fr); err != nil {
		return nil, fmt.Errorf("obs: parse flight %s: %w", path, err)
	}
	if fr.Version != FlightVersion {
		return nil, fmt.Errorf("obs: flight %s has version %d, want %d", path, fr.Version, FlightVersion)
	}
	if fr.Target == "" || fr.Recording == "" || fr.BugID == "" {
		return nil, fmt.Errorf("obs: flight %s is missing target, recording, or bug_id", path)
	}
	return fr, nil
}

// CollectorRecords flattens the collector's held window into wire records
// (oldest first) for embedding in a FlightRecord.
func CollectorRecords(c *Collector) []RecordJSON {
	out := make([]RecordJSON, c.Len())
	for i := range out {
		out[i] = c.Record(i).toJSON()
	}
	return out
}
