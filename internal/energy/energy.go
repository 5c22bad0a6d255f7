// Package energy provides the system-level energy ledger used by the serving
// simulator: named components accumulate joules, and the ledger reports
// totals, shares and efficiency ratios (the Fig. 8(b)/9(b) metric).
package energy

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/units"
)

// Component names the system parts that consume energy. It is a closed
// enum: each component indexes the ledger's array directly, so a charge is
// two stores.
type Component int8

// Components of the PAPI system and its baselines, in the lexicographic
// order of their names: a ledger lists and sums them in this order.
const (
	AttnPIM Component = iota
	FCPIM
	GPUActive
	GPUIdle
	HostCPU
	Interconnect
	Other
	numComponents
)

var componentNames = [numComponents]string{
	AttnPIM:      "attn-pim",
	FCPIM:        "fc-pim",
	GPUActive:    "gpu-active",
	GPUIdle:      "gpu-idle",
	HostCPU:      "host-cpu",
	Interconnect: "interconnect",
	Other:        "other",
}

// String names the component.
func (c Component) String() string {
	if c < 0 || c >= numComponents {
		return fmt.Sprintf("Component(%d)", int8(c))
	}
	return componentNames[c]
}

// Ledger accumulates energy per component. The zero value is ready to use.
type Ledger struct {
	joules  [numComponents]units.Joules
	charged [numComponents]bool
}

// Add charges j joules to component c. Negative charges are a programming
// error and panic (energy only accumulates); so does a component outside
// the enum, via the index.
//
//papivet:noalloc
func (l *Ledger) Add(c Component, j units.Joules) {
	if j < 0 {
		panic("energy: negative charge")
	}
	l.joules[c] += j
	l.charged[c] = true
}

// Get returns a component's accumulated energy.
func (l *Ledger) Get(c Component) units.Joules { return l.joules[c] }

// Set stores a running total that a caller built from Get with Charge — the
// serving engine keeps a decode window's totals in locals — and marks the
// component charged, as the Add calls it replaces would have. Only a
// component that took at least one charge may be stored back.
func (l *Ledger) Set(c Component, total units.Joules) {
	l.joules[c] = total
	l.charged[c] = true
}

// Charge returns total + j: one Add charge applied to a running total kept
// outside the ledger (see Set). As with Add, a negative charge panics.
//
//papivet:noalloc
func Charge(total, j units.Joules) units.Joules {
	if j < 0 {
		panic("energy: negative charge")
	}
	return total + j
}

// Total sums every component in Component order: float addition is
// order-sensitive, and a fixed order keeps totals bit-stable run to run.
// An uncharged component holds +0 and adds nothing.
func (l *Ledger) Total() units.Joules {
	var t units.Joules
	for _, j := range l.joules {
		t += j
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

// Components returns the charged components in Component order.
func (l *Ledger) Components() []Component {
	var cs []Component
	for c := range numComponents {
		if l.charged[c] {
			cs = append(cs, c)
		}
	}
	return cs
}

// Merge adds every charged entry of other into l.
func (l *Ledger) Merge(other *Ledger) {
	for c := range numComponents {
		if other.charged[c] {
			l.Add(c, other.joules[c])
		}
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
