package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// small returns each workload at a size a test can run in a second or two.
func small() []workload {
	return []workload{
		{name: "fleet-scale", gen: func(seed int64) (unit, error) { return newFleetScale(seed, 4000) }},
		{name: "chat-kv", gen: func(seed int64) (unit, error) { return newChatKV(seed, 300) }},
		{name: "faults-elastic", gen: func(seed int64) (unit, error) { return newFaultsElastic(seed, 4000) }},
		{name: "paper-grid", gen: func(seed int64) (unit, error) { return newPaperGrid(seed, 1) }},
	}
}

func digestOf(t *testing.T, w workload, seed int64) string {
	t.Helper()
	u, err := w.gen(seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := u.run(func() {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(out.digest[:])
}

// withPin runs w at the default seed against the given pin.
func withPin(t *testing.T, w workload, pin string) *report {
	t.Helper()
	pinnedDigests[w.name] = pin
	defer delete(pinnedDigests, w.name)
	rep, err := run(w, config{workload: w.name, seed: defaultSeed, seconds: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCorruptedPinFailsEveryRequest(t *testing.T) {
	w := small()[1]
	w.name = "pin-self-test"
	good := digestOf(t, w, defaultSeed)

	rep := withPin(t, w, good)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("true pin: correct %t, %d of %d failed; notes %v", rep.Correct, rep.Failed, rep.Attempted, rep.notes)
	}
	corrupt := []byte(good)
	corrupt[0] ^= 1
	rep = withPin(t, w, string(corrupt))
	if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted == 0 {
		t.Fatalf("corrupted pin: correct %t, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

func TestLedgerAndRunErrorsFailTheUnit(t *testing.T) {
	rep := &report{Metrics: map[string]metric{}}
	tl := &tally{sent: 10, rep: rep}
	if tl.check(&outcome{sent: 10, completed: 7, simFailed: 2}, nil) {
		t.Error("an unbalanced ledger passed")
	}
	if tl.check(nil, errors.New("boom")) {
		t.Error("a run error passed")
	}
	if !tl.check(&outcome{sent: 10, completed: 8, simFailed: 2}, nil) {
		t.Error("a balanced ledger failed")
	}
	if tl.attempted != 30 || tl.failed != 20 {
		t.Errorf("attempted %d, failed %d; want 30, 20", tl.attempted, tl.failed)
	}
}

// Tracing wraps the router, retains per-request records and times the
// request source; none of it may change a simulated output, and both drills
// must reproduce their units.
func TestTracingKeepsTheDigest(t *testing.T) {
	for _, w := range small() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(w, config{workload: w.name, seed: 7, seconds: 1e-3, trace: true, spans: "-"})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct %t, %d of %d failed; notes %v", rep.Correct, rep.Failed, rep.Attempted, rep.notes)
			}
			if w.name == "fleet-scale" || w.name == "paper-grid" {
				if got := rep.Metrics["serving.drill_match"].Value; got != 1 {
					t.Errorf("serving drill did not reproduce the unit (drill_match %v)", got)
				}
			}
		})
	}
}

// A run reports exactly the metrics BENCHMARK.json declares, with their units.
func TestEveryDeclaredMetricIsReported(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	w := small()[3]
	for _, trace := range []bool{false, true} {
		want := decl.EndToEnd
		if trace {
			want = decl.PerLayer
		}
		rep, err := run(w, config{workload: w.name, seed: 3, seconds: 1e-3, trace: trace, spans: "-"})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("trace %t: %d metrics reported, %d declared", trace, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %t: %s reported as %+v (present %t), declared in %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// The pins hold at the default seed and the benchmark's own sizes.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range workloads {
		want, ok := pinnedDigests[w.name]
		if !ok {
			t.Errorf("%s: no pinned digest", w.name)
			continue
		}
		if got := digestOf(t, w, defaultSeed); !strings.EqualFold(got, want) {
			t.Errorf("%s: digest %s, pinned %s", w.name, got, want)
		}
	}
}
