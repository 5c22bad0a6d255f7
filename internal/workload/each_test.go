package workload

import (
	"reflect"
	"testing"
)

// TestScenarioEach pins the streaming generator's contract: deterministic
// for a fixed (n, seed), strictly increasing arrivals, sequential IDs, and
// an early-stopping yield.
func TestScenarioEach(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.ClosedLoop() {
			if err := sc.Each(4, 1, func(Request) bool { return true }); err == nil {
				t.Fatalf("%s: closed-loop scenario streamed open-loop", sc.Name)
			}
			continue
		}
		collect := func() []Request {
			var out []Request
			if err := sc.Each(200, 42, func(r Request) bool {
				out = append(out, r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b := collect(), collect()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Each is not deterministic", sc.Name)
		}
		if len(a) != 200 {
			t.Fatalf("%s: yielded %d of 200", sc.Name, len(a))
		}
		prev := Request{Arrival: -1}
		for i, r := range a {
			if r.ID != i {
				t.Fatalf("%s: request %d has ID %d", sc.Name, i, r.ID)
			}
			if r.Arrival <= prev.Arrival {
				t.Fatalf("%s: arrival %v not after %v", sc.Name, r.Arrival, prev.Arrival)
			}
			if r.InputLen <= 0 || r.OutputLen <= 0 {
				t.Fatalf("%s: request %d has empty lengths", sc.Name, i)
			}
			prev = r
		}
		seen := 0
		if err := sc.Each(200, 42, func(r Request) bool {
			seen++
			return seen < 10
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 10 {
			t.Fatalf("%s: early stop yielded %d, want 10", sc.Name, seen)
		}
	}

	if err := (Scenario{Name: "x", NewArrivals: func() ArrivalProcess { return mustArrivals(NewPoisson(1)) },
		Mix: []WeightedDataset{{Dataset: GeneralQA(), Weight: 1}}}).Each(0, 1, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestScenarioEachTieredClasses checks the tiered mix actually streams both
// priority classes — the property the tiered-diurnal scale runs rely on.
func TestScenarioEachTieredClasses(t *testing.T) {
	sc, err := ScenarioByName(ScenarioTieredDiurnal)
	if err != nil {
		t.Fatal(err)
	}
	count := map[Class]int{}
	if err := sc.Each(500, 7, func(r Request) bool {
		count[r.Class]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count[ClassInteractive] == 0 || count[ClassBatch] == 0 {
		t.Fatalf("tiered stream missing a class: %v", count)
	}
}
