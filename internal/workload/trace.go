package workload

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// TraceRequest is one request in a saved trace. Arrival is kept in seconds as
// a float64: Go marshals float64 with the shortest round-tripping decimal
// representation, so export → import → export is byte-identical.
type TraceRequest struct {
	ID        int     `json:"id"`
	InputLen  int     `json:"input"`
	OutputLen int     `json:"output"`
	Arrival   float64 `json:"arrival_s"`
	// Class mirrors Request.Class as its display name; omitted for
	// interactive (the default), so pre-class traces round-trip byte-stably.
	Class string `json:"class,omitempty"`
	// Conversation and Turn mirror Request.Conversation/Turn: Turn is
	// 1-based within a closed-loop conversation, 0 (omitted) for open-loop
	// requests.
	Conversation int `json:"conversation,omitempty"`
	Turn         int `json:"turn,omitempty"`
	// PrefixGroup and PrefixLen mirror Request.PrefixGroup/PrefixLen;
	// both omitted for requests with no sharing relationship, so
	// pre-prefix traces round-trip byte-stably.
	PrefixGroup int64 `json:"prefix_group,omitempty"`
	PrefixLen   int   `json:"prefix_len,omitempty"`
}

// Trace is a saved request stream: a scenario realisation (or any recorded
// run) that can be replayed byte-stably. Replaying a trace sidesteps the
// arrival process entirely — the arrivals are literal — so a bursty or
// closed-loop realisation can be re-fed to a different design or router and
// every system faces exactly the same traffic.
type Trace struct {
	Name     string         `json:"name"`
	Scenario string         `json:"scenario,omitempty"`
	Seed     int64          `json:"seed"`
	Requests []TraceRequest `json:"requests"`
}

// NewTrace records a request stream under a name. A negative arrival means
// "already waiting at start" and is recorded as zero, which replays
// identically.
func NewTrace(name, scenario string, seed int64, reqs []Request) Trace {
	t := Trace{Name: name, Scenario: scenario, Seed: seed}
	t.Requests = make([]TraceRequest, len(reqs))
	for i, r := range reqs {
		arr := r.Arrival.Seconds()
		if arr < 0 {
			arr = 0
		}
		class := ""
		if r.Class != ClassInteractive {
			class = r.Class.String()
		}
		t.Requests[i] = TraceRequest{
			ID:           r.ID,
			InputLen:     r.InputLen,
			OutputLen:    r.OutputLen,
			Arrival:      arr,
			Class:        class,
			Conversation: r.Conversation,
			Turn:         r.Turn,
			PrefixGroup:  r.PrefixGroup,
			PrefixLen:    r.PrefixLen,
		}
	}
	return t
}

// Workload converts the trace back into a runnable request stream. An
// unknown class name is a programming error and panics: ImportTrace
// validates classes, so only a hand-built Trace can carry one, and mapping
// it silently to a default would hand a typo top priority.
func (t Trace) Workload() []Request {
	reqs := make([]Request, len(t.Requests))
	for i, r := range t.Requests {
		class := ClassInteractive
		if r.Class != "" {
			var err error
			if class, err = ClassByName(r.Class); err != nil {
				panic(fmt.Sprintf("workload: trace %q request %d: %v", t.Name, r.ID, err))
			}
		}
		reqs[i] = Request{
			ID:           r.ID,
			InputLen:     r.InputLen,
			OutputLen:    r.OutputLen,
			Arrival:      units.Seconds(r.Arrival),
			Class:        class,
			Conversation: r.Conversation,
			Turn:         r.Turn,
			PrefixGroup:  r.PrefixGroup,
			PrefixLen:    r.PrefixLen,
		}
	}
	return reqs
}

// Export serialises the trace as indented JSON with a trailing newline.
// Serialisation is deterministic: struct fields marshal in declaration order
// and float64s use the shortest round-tripping form, so the same trace always
// yields the same bytes.
func (t Trace) Export() ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ImportTrace parses and validates an exported trace.
func ImportTrace(data []byte) (Trace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("workload: invalid trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

func (t Trace) validate() error {
	if t.Name == "" {
		return fmt.Errorf("workload: trace has no name")
	}
	if len(t.Requests) == 0 {
		return fmt.Errorf("workload: trace %q has no requests", t.Name)
	}
	seen := make(map[int]bool, len(t.Requests))
	for _, r := range t.Requests {
		if r.InputLen <= 0 || r.OutputLen <= 0 {
			return fmt.Errorf("workload: trace %q request %d has non-positive lengths", t.Name, r.ID)
		}
		if r.Arrival < 0 {
			return fmt.Errorf("workload: trace %q request %d arrives at negative time %g", t.Name, r.ID, r.Arrival)
		}
		if r.Turn < 0 {
			return fmt.Errorf("workload: trace %q request %d has negative turn %d", t.Name, r.ID, r.Turn)
		}
		if seen[r.ID] {
			return fmt.Errorf("workload: trace %q has duplicate request ID %d", t.Name, r.ID)
		}
		seen[r.ID] = true
		if r.Class != "" {
			if _, err := ClassByName(r.Class); err != nil {
				return fmt.Errorf("workload: trace %q request %d: %w", t.Name, r.ID, err)
			}
		}
		if r.PrefixLen < 0 || r.PrefixLen > r.InputLen {
			return fmt.Errorf("workload: trace %q request %d prefix length %d outside input length %d",
				t.Name, r.ID, r.PrefixLen, r.InputLen)
		}
		if r.PrefixLen > 0 && r.PrefixGroup == 0 {
			return fmt.Errorf("workload: trace %q request %d has a prefix length but no prefix group", t.Name, r.ID)
		}
	}
	return nil
}
