// Package energy provides the system-level energy ledger used by the serving
// simulator: named components accumulate joules, and the ledger reports
// totals, shares and efficiency ratios (the Fig. 8(b)/9(b) metric).
package energy

import (
	"fmt"
	"sort"
	"strings"

	"github.com/papi-sim/papi/internal/units"
)

// Component names the system parts that consume energy.
type Component string

// Standard components of the PAPI system and its baselines.
const (
	GPUActive    Component = "gpu-active"
	GPUIdle      Component = "gpu-idle"
	FCPIM        Component = "fc-pim"
	AttnPIM      Component = "attn-pim"
	Interconnect Component = "interconnect"
	HostCPU      Component = "host-cpu"
	Other        Component = "other"
)

// stdComponents lists the standard components in their deterministic
// (lexicographic) order; stdIndex maps a component to its slot.
var stdComponents = [...]Component{AttnPIM, FCPIM, GPUActive, GPUIdle, HostCPU, Interconnect, Other}

// Slot is a precomputed ledger index for a standard component. The serving
// engine charges several components per simulated decoding iteration; going
// through a Slot makes each charge an inlinable two-store operation instead
// of a string-switch dispatch. Values mirror stdComponents order.
type Slot int8

// Slots of the standard components.
const (
	SlotAttnPIM Slot = iota
	SlotFCPIM
	SlotGPUActive
	SlotGPUIdle
	SlotHostCPU
	SlotInterconnect
	SlotOther
)

// stdIndex returns the array slot of a standard component, or -1.
func stdIndex(c Component) int {
	switch c {
	case AttnPIM:
		return 0
	case FCPIM:
		return 1
	case GPUActive:
		return 2
	case GPUIdle:
		return 3
	case HostCPU:
		return 4
	case Interconnect:
		return 5
	case Other:
		return 6
	}
	return -1
}

// Ledger accumulates energy per component. The zero value is ready to use.
//
// The standard components live in a fixed array so the serving engine's
// per-iteration charges (several per decoding step) are plain indexed adds
// rather than string-keyed map operations; non-standard components spill
// into a map. Per-component accumulation order is unchanged either way, so
// totals are bit-identical to the map-only representation.
type Ledger struct {
	std     [len(stdComponents)]units.Joules
	charged [len(stdComponents)]bool
	extra   map[Component]units.Joules
}

// Add charges j joules to component c. Negative charges are a programming
// error and panic (energy only accumulates). The body is kept small enough
// to inline: with a constant component — every call in the serving engine —
// the compiler folds stdIndex away and the charge compiles to two stores.
func (l *Ledger) Add(c Component, j units.Joules) {
	if i := stdIndex(c); i >= 0 && j >= 0 {
		l.std[i] += j
		l.charged[i] = true
		return
	}
	l.addSlow(c, j)
}

// AddSlot charges j joules to a standard component by its precomputed slot
// — the hot-path equivalent of Add, small enough to inline to two stores.
// As with Add, negative charges panic (without the formatted detail, to stay
// inside the inlining budget); an out-of-range slot panics via the index.
//
//papivet:noalloc
func (l *Ledger) AddSlot(s Slot, j units.Joules) {
	if j < 0 {
		panic("energy: negative charge")
	}
	l.std[s] += j
	l.charged[s] = true
}

// Slot returns a standard component's accumulated energy by its slot.
func (l *Ledger) Slot(s Slot) units.Joules { return l.std[s] }

// SetSlot stores a running total that a caller built from Slot with Charge
// — the serving engine keeps a decode window's totals in locals — and marks
// the slot charged, as the AddSlot calls it replaces would have. Only a
// slot that took at least one charge may be stored back.
func (l *Ledger) SetSlot(s Slot, total units.Joules) {
	l.std[s] = total
	l.charged[s] = true
}

// Charge returns total + j: one AddSlot charge applied to a running total
// kept outside the ledger (see SetSlot). As with AddSlot, a negative charge
// panics.
//
//papivet:noalloc
func Charge(total, j units.Joules) units.Joules {
	if j < 0 {
		panic("energy: negative charge")
	}
	return total + j
}

// addSlow handles the non-standard-component and negative-charge cases.
func (l *Ledger) addSlow(c Component, j units.Joules) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative charge %v to %s", j, c))
	}
	if i := stdIndex(c); i >= 0 {
		l.std[i] += j
		l.charged[i] = true
		return
	}
	if l.extra == nil {
		l.extra = make(map[Component]units.Joules)
	}
	l.extra[c] += j
}

// Get returns a component's accumulated energy.
func (l *Ledger) Get(c Component) units.Joules {
	if i := stdIndex(c); i >= 0 {
		return l.std[i]
	}
	return l.extra[c]
}

// Total sums every component. Summation follows the deterministic
// Components order: float addition is order-sensitive, and an unordered
// traversal would otherwise make totals differ by an ulp run-to-run.
func (l *Ledger) Total() units.Joules {
	var t units.Joules
	for _, c := range l.Components() {
		t += l.Get(c)
	}
	return t
}

// Share returns a component's fraction of the total (0 when empty).
func (l *Ledger) Share(c Component) float64 {
	t := l.Total()
	if t <= 0 {
		return 0
	}
	return float64(l.Get(c)) / float64(t)
}

// Components returns the charged components in deterministic order.
func (l *Ledger) Components() []Component {
	cs := make([]Component, 0, len(stdComponents)+len(l.extra))
	for i, c := range stdComponents {
		if l.charged[i] {
			cs = append(cs, c)
		}
	}
	for c := range l.extra {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// Merge adds every entry of other into l.
func (l *Ledger) Merge(other *Ledger) {
	for _, c := range other.Components() {
		l.Add(c, other.Get(c))
	}
}

// String renders the ledger for debugging and reports.
func (l *Ledger) String() string {
	var b strings.Builder
	for _, c := range l.Components() {
		fmt.Fprintf(&b, "%s: %v (%.1f%%)\n", c, l.Get(c), 100*l.Share(c))
	}
	fmt.Fprintf(&b, "total: %v", l.Total())
	return b.String()
}

// EfficiencyVersus returns the energy-efficiency improvement of this ledger
// relative to a baseline performing the same work: baseline total / ours.
// Values above 1 mean this system is more efficient.
func (l *Ledger) EfficiencyVersus(baseline *Ledger) float64 {
	ours := float64(l.Total())
	if ours <= 0 {
		return 0
	}
	return float64(baseline.Total()) / ours
}
