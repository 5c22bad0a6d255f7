// Package sim provides a small discrete-event simulation kernel: a clock and
// an event queue with deterministic ordering.
//
// The command-level DRAM simulator (internal/dram) is built on this kernel.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes simulations reproducible run-to-run — a property the
// test suite relies on.
package sim

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// Event is a callback scheduled to run at a simulated instant.
type Event func(now units.Seconds)

type item struct {
	at  units.Seconds
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  Event
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq), stored by
// value. The kernel used to route through container/heap, whose interface
// dispatch and per-event pointer allocation sat on the fleet-scale hot path
// (one push and one pop per replica step); inlining the sifts on the
// concrete slice removes both. (at, seq) is a strict total order — seq is
// unique — so the pop sequence, and therefore every simulation, is
// identical whatever the heap's internal arrangement.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
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

func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() item {
	old := *h
	n := len(old) - 1
	it := old[0]
	old[0] = old[n]
	old[n] = item{} // release the callback reference
	*h = old[:n]
	h.siftDown(0)
	return it
}

// Engine owns the simulated clock and the pending event set.
// The zero value is ready to use.
type Engine struct {
	now    units.Seconds
	seq    uint64
	events eventHeap
}

// New returns an empty engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() units.Seconds { return e.now }

// Pending reports how many events are waiting.
func (e *Engine) Pending() int { return len(e.events) }

// NextAt reports the timestamp of the earliest pending event. The second
// return is false when the queue is empty. Called from inside an event
// callback, it sees the true next event (the running event has already been
// popped) — the property the cluster layer's macro-stepping horizon relies
// on: no future event can be scheduled earlier than this instant.
func (e *Engine) NextAt() (units.Seconds, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// At schedules fn to run at the absolute instant t. Scheduling in the past is
// a programming error and panics: it would silently reorder causality.
func (e *Engine) At(t units.Seconds, fn Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(item{at: t, seq: e.seq, fn: fn})
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := e.events.pop()
	e.now = it.at
	it.fn(e.now)
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() units.Seconds {
	for e.Step() {
	}
	return e.now
}
