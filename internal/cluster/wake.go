package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/papi-sim/papi/internal/units"
)

// Targeted barriers. An arrival changes one replica, and the built-in
// routers read only Outstanding and KVHeadroom, which change only on a push
// or a completion. So a replica whose first possible completion starts at
// or after a barrier shows every event at that barrier the same signals
// whether it stepped up to it or not, and the driver leaves it where it is:
// its next drive runs one longer window across every barrier it skipped,
// and results are split-invariant. The run keeps its armed replicas in a
// min-heap keyed on each one's wake, the later of its armed instant and its
// stepper's quiet bound (serving.Stepper.QuietUntil), so a barrier touches
// only the replicas due before it.
//
// An event that reads more of a replica than those two signals first syncs
// it — drives it up to the event instant: a router reading Replica.Now, a
// push that prices the block store's resident prefix, a push of a request
// that arrived before it (a retry, admissible at once), a deadline, a crash
// or a straggler edge on the replica it names, and every armed replica for
// a brownout edge, which changes every replica's pricing. Autoscaler ticks
// and activations sync nothing: they read only replica states and those
// signals, and an activation hands stranded requests to the router and
// push, which sync what they read. A replica left behind has its wake at or
// after the instant, so a sync finishes no request, launches no follow-up
// and writes no ledger entry; a finish there would mean a wrong bound, and
// it stops the run with an error rather than diverge silently.

// wakeHeap holds the run's armed replicas in a binary min-heap on (wake,
// ID). Each entry carries its replica's wake, so a comparison reads the
// heap's own array; each replica records its index in slot (-1 when it is
// not in the heap). Its capacity covers every replica ever built (see
// addReplica), so the operations never grow it.
type wakeHeap []wakeEntry

type wakeEntry struct {
	wake units.Seconds
	rep  *Replica
}

func (h wakeHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	return a.wake < b.wake || a.wake == b.wake && a.rep.ID < b.rep.ID
}

//papivet:noalloc
func (h wakeHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].rep.slot, h[j].rep.slot = i, j
}

//papivet:noalloc
func (h wakeHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
//
//papivet:noalloc
func (h wakeHeap) down(i int) bool {
	start := i
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

// set files a replica that is not in the heap under wake, or re-files one
// that is.
//
//papivet:noalloc
func (h *wakeHeap) set(rep *Replica, wake units.Seconds) {
	i := rep.slot
	if i < 0 {
		i = len(*h)
		*h = (*h)[:i+1]
		rep.slot = i
	}
	(*h)[i] = wakeEntry{wake, rep}
	if !h.down(i) {
		h.up(i)
	}
}

// remove takes a replica out of the heap.
//
//papivet:noalloc
func (h *wakeHeap) remove(rep *Replica) {
	i, last := rep.slot, len(*h)-1
	if i != last {
		h.swap(i, last)
	}
	(*h)[last] = wakeEntry{}
	*h = (*h)[:last]
	rep.slot = -1
	if i < last && !h.down(i) {
		h.up(i)
	}
}

// rearm re-keys a replica in the wake heap after a drive, a push, a
// cancellation or a crash changed its stepper: an armed replica's wake is
// the later of its armed instant and its quiet bound, and a disarmed one
// leaves the heap.
//
//papivet:noalloc
func (r *fleetRun) rearm(rep *Replica) {
	if !rep.scheduled {
		if rep.slot >= 0 {
			r.wakes.remove(rep)
		}
		return
	}
	r.wakes.set(rep, max(rep.nextStep, rep.stepper.QuietUntil()))
}

// byID orders replicas by ID, the order the driver drives them in.
func byID(a, b *Replica) int { return cmp.Compare(a.ID, b.ID) }

// sync drives one replica left behind up to the current event instant (see
// the targeted-barriers note above).
func (r *fleetRun) sync(rep *Replica) {
	now := r.kernel.Now()
	if !rep.scheduled || rep.nextStep >= now {
		return
	}
	r.wakes.remove(rep)
	left := rep.stepper.Outstanding()
	r.driveReplica(rep, now)
	if rep.stepper.Outstanding() != left && r.err == nil {
		r.err = fmt.Errorf("cluster: replica %d finished a request catching up to %v, before its quiet bound",
			rep.ID, now)
	}
	r.rearm(rep)
}

// syncAll syncs every armed replica, in replica order.
func (r *fleetRun) syncAll() {
	now := r.kernel.Now()
	due := r.due[:0]
	for _, e := range r.wakes {
		if e.rep.nextStep < now {
			due = append(due, e.rep)
		}
	}
	slices.SortFunc(due, byID)
	for _, rep := range due {
		r.sync(rep)
	}
	r.due = due[:0]
}
