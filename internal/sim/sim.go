// Package sim provides a small discrete-event simulation kernel: a clock and
// an event queue with deterministic ordering.
//
// The kernel is generic in its event type: an Engine[E] holds events of type
// E and fires each one through the function it was built with (see New). The
// command-level DRAM simulator (internal/dram) schedules callbacks on an
// Engine[Event] built with Call; the fleet layer (internal/cluster) schedules
// small value events and dispatches them in one switch. Events scheduled for
// the same instant fire in the order they were scheduled, which makes
// simulations reproducible run-to-run — a property the test suite relies on.
// A zero Engine has no fire function and is not usable: build one with New.
package sim

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// Event is a callback scheduled to run at a simulated instant: the event
// type of an engine built with Call.
type Event func(now units.Seconds)

// Call fires a callback event; New(Call) builds a callback engine.
func Call(now units.Seconds, fn Event) { fn(now) }

type item[E any] struct {
	at  units.Seconds
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  E
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq), stored by
// value. The kernel used to route through container/heap, whose interface
// dispatch and per-event pointer allocation sat on the fleet-scale hot path
// (one push and one pop per replica step); inlining the sifts on the
// concrete slice removes both. (at, seq) is a strict total order — seq is
// unique — so the pop sequence, and therefore every simulation, is
// identical whatever the heap's internal arrangement.
type eventHeap[E any] []item[E]

func (h eventHeap[E]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap[E]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap[E]) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// push files ev at (at, seq). It writes the new item's fields in place:
// copying in a composite literal would read back, in wider loads, the
// narrower stores that built it, which stalls store forwarding.
func (h *eventHeap[E]) push(at units.Seconds, seq uint64, ev E) {
	*h = append(*h, item[E]{})
	n := len(*h) - 1
	it := &(*h)[n]
	it.at, it.seq, it.ev = at, seq, ev
	h.siftUp(n)
}

// pop removes the earliest item and returns its instant and event.
func (h *eventHeap[E]) pop() (units.Seconds, E) {
	old := *h
	n := len(old) - 1
	at, ev := old[0].at, old[0].ev
	old[0] = old[n]
	old[n] = item[E]{} // release any reference the event holds
	*h = old[:n]
	h.siftDown(0)
	return at, ev
}

// Engine owns the simulated clock and the pending event set.
type Engine[E any] struct {
	now    units.Seconds
	seq    uint64
	events eventHeap[E]
	fire   func(now units.Seconds, ev E)
}

// New returns an empty engine with the clock at zero that fires each event
// through fire, at the event's instant.
func New[E any](fire func(now units.Seconds, ev E)) *Engine[E] {
	return &Engine[E]{fire: fire}
}

// Now reports the current simulated time.
func (e *Engine[E]) Now() units.Seconds { return e.now }

// Pending reports how many events are waiting.
func (e *Engine[E]) Pending() int { return len(e.events) }

// NextAt reports the timestamp of the earliest pending event. The second
// return is false when the queue is empty. Called from inside a firing
// event, it sees the true next event (the running event has already been
// popped) — the property the cluster layer's barrier relies on: no future
// event can be scheduled earlier than this instant.
func (e *Engine[E]) NextAt() (units.Seconds, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// At schedules ev to fire at the absolute instant t. Scheduling in the past
// is a programming error and panics: it would silently reorder causality.
func (e *Engine[E]) At(t units.Seconds, ev E) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(t, e.seq, ev)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event fired.
func (e *Engine[E]) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	at, ev := e.events.pop()
	e.now = at
	e.fire(at, ev)
	return true
}

// Run fires events until the queue drains and returns the final time.
func (e *Engine[E]) Run() units.Seconds {
	for e.Step() {
	}
	return e.now
}
