package energy

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

func TestZeroValueUsable(t *testing.T) {
	var l Ledger
	l.Add(GPUActive, 10)
	if l.Total() != 10 {
		t.Fatalf("total = %v", l.Total())
	}
}

func TestAccumulation(t *testing.T) {
	var l Ledger
	l.Add(FCPIM, 2)
	l.Add(FCPIM, 3)
	l.Add(AttnPIM, 5)
	if l.Get(FCPIM) != 5 {
		t.Fatalf("fc-pim = %v", l.Get(FCPIM))
	}
	if l.Total() != 10 {
		t.Fatalf("total = %v", l.Total())
	}
	if got := l.Share(AttnPIM); got != 0.5 {
		t.Fatalf("share = %v", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge should panic")
		}
	}()
	var l Ledger
	l.Add(Other, -1)
}

// TestAddSlotNegativePanics pins the negative-charge guard of the hot-path
// charges that took over from the slot-indexed AddSlot: Add, which indexes
// the ledger's array by the Component itself, on every component, and
// Charge, which the serving window applies to running totals it stores back
// with Set. A refused charge leaves the ledger untouched.
func TestAddSlotNegativePanics(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: negative charge did not panic", name)
			}
		}()
		f()
	}
	for c := range numComponents {
		var l Ledger
		panics(c.String(), func() { l.Add(c, -1) })
		if l.Get(c) != 0 || l.Components() != nil {
			t.Fatalf("%s: refused charge left %v, components %v", c, l.Get(c), l.Components())
		}
	}
	panics("Charge", func() { Charge(1, -1) })
	if got := Charge(1, 2); got != 3 {
		t.Fatalf("Charge(1, 2) = %v, want 3", got)
	}
}

func TestComponentsOrdered(t *testing.T) {
	var l Ledger
	l.Add(Other, 1)
	l.Add(GPUActive, 1)
	l.Add(AttnPIM, 1)
	cs := l.Components()
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("components not sorted: %v", cs)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Ledger
	a.Add(GPUActive, 1)
	b.Add(GPUActive, 2)
	b.Add(HostCPU, 3)
	a.Merge(&b)
	if a.Get(GPUActive) != 3 || a.Get(HostCPU) != 3 {
		t.Fatalf("merge wrong: %v", a.String())
	}
}

func TestEfficiencyVersus(t *testing.T) {
	var papi, base Ledger
	papi.Add(FCPIM, 10)
	base.Add(GPUActive, 34)
	if got := papi.EfficiencyVersus(&base); math.Abs(got-3.4) > 1e-12 {
		t.Fatalf("efficiency = %v, want 3.4", got)
	}
	var empty Ledger
	if got := empty.EfficiencyVersus(&base); got != 0 {
		t.Fatalf("empty efficiency = %v", got)
	}
}

func TestString(t *testing.T) {
	var l Ledger
	l.Add(Interconnect, units.Joules(1))
	s := l.String()
	if !strings.Contains(s, "interconnect") || !strings.Contains(s, "total") {
		t.Fatalf("string = %q", s)
	}
}

func TestEmptyLedger(t *testing.T) {
	var l Ledger
	if l.Total() != 0 || l.Share(GPUActive) != 0 || len(l.Components()) != 0 {
		t.Fatal("empty ledger should be all zeros")
	}
}

// Property: total equals the sum of components, and shares sum to 1.
func TestConservationProperty(t *testing.T) {
	comps := []Component{GPUActive, GPUIdle, FCPIM, AttnPIM, Interconnect, HostCPU, Other}
	f := func(charges []uint16) bool {
		var l Ledger
		var want float64
		for i, c := range charges {
			j := units.Joules(float64(c) / 16)
			l.Add(comps[i%len(comps)], j)
			want += float64(j)
		}
		if math.Abs(float64(l.Total())-want) > 1e-9 {
			return false
		}
		if want == 0 {
			return true
		}
		sum := 0.0
		for _, c := range l.Components() {
			sum += l.Share(c)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestComponentNames pins each component's rendered name: ledgers print
// and digest their components by these names, and Components lists them in
// the names' lexicographic order.
func TestComponentNames(t *testing.T) {
	want := []string{"attn-pim", "fc-pim", "gpu-active", "gpu-idle", "host-cpu", "interconnect", "other"}
	var l Ledger
	for c := range numComponents {
		l.Add(c, 1)
	}
	cs := l.Components()
	if len(cs) != len(want) {
		t.Fatalf("Components() = %v, want %d components", cs, len(want))
	}
	for i, c := range cs {
		if c.String() != want[i] || fmt.Sprintf("%v", c) != want[i] || fmt.Sprintf("%s", c) != want[i] {
			t.Fatalf("component %d renders as %q / %v / %s, want %q", i, c.String(), c, c, want[i])
		}
	}
	if got := Component(numComponents).String(); got != "Component(7)" {
		t.Fatalf("out-of-range component renders as %q", got)
	}
	if b, err := json.Marshal(&l); err != nil || string(b) != "{}" {
		t.Fatalf("ledger marshals as %s (%v), want {}", b, err)
	}
}
