package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace(t *testing.T) Trace {
	t.Helper()
	sc, err := ScenarioByName(ScenarioBurstCreative)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.Trace(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The tentpole guarantee: export → import → export is byte-identical, so a
// saved scenario realisation replays byte-stably forever.
func TestTraceRoundTripByteIdentical(t *testing.T) {
	tr := sampleTrace(t)
	first, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportTrace(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := back.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round-trip changed bytes:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("round-trip changed the trace value")
	}
}

func TestTraceWorkloadRoundTrip(t *testing.T) {
	sc, err := ScenarioByName(ScenarioSteadyQA)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sc.Requests(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace("t", sc.Name, 7, reqs)
	if got := tr.Workload(); !reflect.DeepEqual(got, reqs) {
		t.Fatal("Workload() does not reproduce the original requests")
	}
}

func TestTraceClampsNegativeArrivals(t *testing.T) {
	tr := NewTrace("t", "", 0, []Request{{ID: 0, InputLen: 4, OutputLen: 4, Arrival: -1}})
	if tr.Requests[0].Arrival != 0 {
		t.Fatalf("negative arrival recorded as %g, want 0", tr.Requests[0].Arrival)
	}
}

func TestImportTraceRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"no name":       `{"seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0}]}`,
		"empty":         `{"name":"x","seed":1,"requests":[]}`,
		"bad lengths":   `{"name":"x","seed":1,"requests":[{"id":0,"input":0,"output":4,"arrival_s":0}]}`,
		"negative time": `{"name":"x","seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":-2}]}`,
		"duplicate id":  `{"name":"x","seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0},{"id":0,"input":4,"output":4,"arrival_s":1}]}`,
		"negative turn": `{"name":"x","seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0,"turn":-1}]}`,
		"unknown field": `{"name":"x","seed":1,"bogus":true,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0}]}`,
		"not json":      `hello`,
	}
	for label, data := range cases {
		if _, err := ImportTrace([]byte(data)); err == nil {
			t.Errorf("%s: import accepted invalid trace", label)
		} else if !strings.Contains(err.Error(), "workload:") {
			t.Errorf("%s: error %q lacks package prefix", label, err)
		}
	}
}

// Prefix-sharing metadata must survive both round trips (to bytes and back,
// and to a runnable stream and back) and be validated on import.
func TestTracePrefixFields(t *testing.T) {
	reqs := []Request{
		{ID: 0, InputLen: 64, OutputLen: 8, PrefixGroup: 3, PrefixLen: 48},
		{ID: 1, InputLen: 64, OutputLen: 8},
	}
	tr := NewTrace("t", "", 0, reqs)
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Workload(); !reflect.DeepEqual(got, reqs) {
		t.Fatalf("prefix fields lost in round trip: %+v", got)
	}
	if bytes.Contains(data, []byte(`"prefix_group": 0`)) {
		t.Fatal("zero prefix group serialised instead of omitted")
	}

	bad := map[string]string{
		"prefix beyond input":  `{"name":"x","seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0,"prefix_group":1,"prefix_len":5}]}`,
		"prefix without group": `{"name":"x","seed":1,"requests":[{"id":0,"input":4,"output":4,"arrival_s":0,"prefix_len":2}]}`,
	}
	for label, data := range bad {
		if _, err := ImportTrace([]byte(data)); err == nil {
			t.Errorf("%s: import accepted invalid trace", label)
		}
	}
}
