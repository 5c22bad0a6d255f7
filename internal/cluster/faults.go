// Fleet-level failure machinery: the bridge between a declarative
// faults.Plan and the live fleetRun. Crash events kill a replica and fail
// over its outstanding requests to survivors (re-prefilling the grown
// context); straggler and brownout windows stretch the priced kernel
// latencies through serving.Perturbation; per-attempt timeouts cancel and
// re-route stuck requests under the same bounded-retry policy. Everything
// here runs as ordinary events on the deterministic sim kernel, so a fixed
// plan reproduces the same failure trace run-to-run.

package cluster

import (
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// reqTrack is one request's failover ledger entry. Every injected or
// stranded request gets one, and loses it once it terminates, as completed
// or failed, so the ledger holds only unresolved requests and an event that
// finds no entry for its request is stale.
type reqTrack struct {
	// attempts counts injections so far (1 on first injection); the retry
	// bound compares against it.
	attempts int
	// rep is the replica currently serving the attempt; nil while the
	// request is between attempts.
	rep *Replica
	// cur is the request as last injected — its InputLen grows with each
	// failover, absorbing the generated tokens that must be re-prefilled.
	cur workload.Request
}

// resilience owns the fault plan's runtime state for one fleet run.
type resilience struct {
	run     *fleetRun
	plan    *faults.Plan
	timeout units.Seconds
	retries int
	backoff units.Seconds

	// track holds the ledger entry of every unresolved request by ID, and
	// spare the resolved entries newTrack reuses.
	track map[int]*reqTrack
	spare []*reqTrack
	// waiting holds casualties with no live replica to land on; they flush
	// (in arrival order) when the autoscaler activates a replacement.
	waiting []workload.Request
	// parked holds batch-class arrivals shed during brownout windows; they
	// flush when the last overlapping window lifts.
	parked []workload.Request

	// brownoutDepth counts overlapping brownout windows; slow holds each
	// replica's active straggler factors and attn the fleet-wide brownout
	// factors (products compose overlapping windows).
	brownoutDepth int
	slow          map[int][]float64
	attn          []float64

	// Aggregate counters surfaced on FleetResult.
	faults     int
	retried    int
	repins     int
	shed       int
	lostTokens int
	reprefill  int
	failures   []FailedRequest
}

func newResilience(r *fleetRun) *resilience {
	opt := r.c.opt
	return &resilience{
		run:     r,
		plan:    opt.Faults,
		timeout: opt.Timeout,
		retries: opt.Retries,
		backoff: opt.RetryBackoff,
		track:   make(map[int]*reqTrack),
		slow:    make(map[int][]float64),
	}
}

// newTrack files a ledger entry for a request, reusing a resolved one.
func (z *resilience) newTrack(id int) *reqTrack {
	var t *reqTrack
	if n := len(z.spare); n > 0 {
		t, z.spare = z.spare[n-1], z.spare[:n-1]
		*t = reqTrack{}
	} else {
		t = new(reqTrack)
	}
	z.track[id] = t
	return t
}

// resolve closes a request's ledger entry and keeps it for reuse.
func (z *resilience) resolve(id int, t *reqTrack) {
	delete(z.track, id)
	z.spare = append(z.spare, t)
}

// schedulePlan arms every fault's kernel events, in plan order (the kernel
// breaks same-instant ties FIFO, so plan order is deterministic). Each event
// names its fault by index; fleetRun.fire reads the fault's replica and
// factor.
func (z *resilience) schedulePlan() {
	if z.plan == nil {
		return
	}
	for i, f := range z.plan.Faults {
		switch f.Kind {
		case faults.KindCrash:
			z.run.kernel.At(f.Start(), event{kind: evCrash, a: i})
		case faults.KindStraggler:
			z.run.kernel.At(f.Start(), event{kind: evStragglerBegin, a: i})
			z.run.kernel.At(f.End(), event{kind: evStragglerEnd, a: i})
		case faults.KindBrownout:
			z.run.kernel.At(f.Start(), event{kind: evBrownoutBegin, a: i})
			z.run.kernel.At(f.End(), event{kind: evBrownoutEnd, a: i})
		}
	}
}

// crash kills a replica at its fault instant: the replica leaves the
// eligible set for good, its clock freezes, and every outstanding request
// becomes a casualty handled by the bounded-retry policy.
func (z *resilience) crash(idx int, now units.Seconds) {
	r := z.run
	if r.err != nil || idx < 0 || idx >= len(r.reps) {
		return
	}
	rep := r.reps[idx]
	if rep.state == repStopped || rep.state == repFailed {
		return
	}
	r.sync(rep)
	z.faults++
	rep.state = repFailed
	rep.stopAt = now
	// The engine may have committed its last iteration past the crash
	// instant; its powered-on span ends at its own clock boundary.
	if t := rep.Now(); t > rep.stopAt {
		rep.stopAt = t
	}
	r.rebuildEligible()
	for _, c := range rep.stepper.Fail() {
		z.handleCasualty(c, now, "crash")
	}
	// With its work gone the stepper's bound falls to its clock: re-key it,
	// so it drains at its next step, as armed.
	r.rearm(rep)
	if r.plan != nil {
		r.plan.crashed(rep)
	}
}

// stragglerBegin/End bracket one slowdown window on one replica.
func (z *resilience) stragglerBegin(idx int, factor float64, now units.Seconds) {
	r := z.run
	if r.err != nil || idx < 0 || idx >= len(r.reps) {
		return
	}
	z.faults++
	r.sync(r.reps[idx])
	z.slow[idx] = append(z.slow[idx], factor)
	z.applyPerturb(r.reps[idx])
}

func (z *resilience) stragglerEnd(idx int, factor float64, now units.Seconds) {
	r := z.run
	if r.err != nil || idx < 0 || idx >= len(r.reps) {
		return
	}
	r.sync(r.reps[idx])
	z.slow[idx] = removeFactor(z.slow[idx], factor)
	z.applyPerturb(r.reps[idx])
}

// brownoutBegin/End bracket one fleet-wide degraded-bandwidth window: every
// replica's attention and communication kernels are priced at the reduced
// bandwidth, and batch-class arrivals are parked until the window lifts.
func (z *resilience) brownoutBegin(factor float64, now units.Seconds) {
	if z.run.err != nil {
		return
	}
	z.run.syncAll()
	z.faults++
	z.brownoutDepth++
	z.attn = append(z.attn, factor)
	z.applyAll()
}

func (z *resilience) brownoutEnd(factor float64, now units.Seconds) {
	if z.run.err != nil {
		return
	}
	z.run.syncAll()
	z.brownoutDepth--
	z.attn = removeFactor(z.attn, factor)
	z.applyAll()
	z.flushParked(now)
}

// applyPerturb installs a replica's current compound perturbation (its own
// straggler factors times the fleet-wide brownout factors).
func (z *resilience) applyPerturb(rep *Replica) {
	if rep.state == repStopped || rep.state == repFailed {
		return
	}
	rep.stepper.SetPerturbation(serving.Perturbation{
		Slow: prod(z.slow[rep.ID]),
		Attn: prod(z.attn),
	})
}

func (z *resilience) applyAll() {
	for _, rep := range z.run.reps {
		z.applyPerturb(rep)
	}
}

// shedArrival parks batch-class open-loop arrivals while any brownout
// window is active (conversation turns carry Turn ≥ 1 and are never shed —
// their KV state is already pinned to a replica).
func (z *resilience) shedArrival(req workload.Request) bool {
	if z.brownoutDepth == 0 || req.Class != workload.ClassBatch || req.Turn != 0 {
		return false
	}
	z.parked = append(z.parked, req)
	z.shed++
	return true
}

// flushParked releases the brownout-parked arrivals once no window remains.
// They route like fresh arrivals: with no brownout left none is shed again,
// and with no live replica each strands.
func (z *resilience) flushParked(now units.Seconds) {
	if z.brownoutDepth > 0 || len(z.parked) == 0 {
		return
	}
	parked := z.parked
	z.parked = nil
	for _, req := range parked {
		z.run.route(req, now)
	}
}

// strand tracks a request that found no live replica to land on: parked for
// the autoscaler's replacement boot when one may come, terminally failed
// otherwise (a static fleet has no replacement coming). Arrivals (route,
// brownout flushes included) and failover retries (dispatch) that find the
// fleet fully crashed both land here.
func (z *resilience) strand(req workload.Request, now units.Seconds) {
	t := z.track[req.ID]
	if t == nil {
		t = z.newTrack(req.ID)
		t.cur = req
	}
	if z.run.scaler == nil {
		z.fail(t, req, "no-replicas", now)
	} else {
		z.waiting = append(z.waiting, req)
	}
}

// noteInject records an attempt and, with a timeout configured, arms its
// deadline. The deadline carries the attempt number so a stale one — the
// request completed or failed, or the attempt was already retried — is a
// no-op; it stays on the kernel until its instant all the same.
func (z *resilience) noteInject(rep *Replica, req workload.Request, now units.Seconds) {
	t := z.track[req.ID]
	if t == nil {
		t = z.newTrack(req.ID)
	}
	t.attempts++
	t.rep = rep
	t.cur = req
	if z.timeout > 0 {
		z.run.kernel.At(now+z.timeout, event{kind: evDeadline, a: req.ID, b: t.attempts})
	}
}

// checkTimeout cancels an attempt still outstanding at its deadline and
// hands the casualty to the bounded-retry policy.
func (z *resilience) checkTimeout(id, attempt int, now units.Seconds) {
	if z.run.err != nil {
		return
	}
	t := z.track[id]
	if t == nil || t.attempts != attempt || t.rep == nil {
		return
	}
	z.run.sync(t.rep)
	c, ok, err := t.rep.stepper.Cancel(id)
	if err != nil {
		z.run.err = err
		return
	}
	// A cancelled active request frees a slot the pending head may take.
	z.run.rearm(t.rep)
	if !ok {
		return
	}
	z.handleCasualty(c, now, "timeout")
}

// finished closes a completed request's ledger entry. The step that
// finished the request calls it, before the next kernel event, so a stale
// timeout at the barrier finds no entry.
func (z *resilience) finished(id int) {
	if t := z.track[id]; t != nil {
		z.resolve(id, t)
	}
}

// handleCasualty applies the bounded-retry policy to one lost attempt: the
// generated tokens are sunk (goodput discounts them), and the request
// either terminally fails or is rescheduled — with its context grown by the
// lost generation, to be re-prefilled on the survivor — after deterministic
// exponential backoff.
func (z *resilience) handleCasualty(c serving.Casualty, now units.Seconds, reason string) {
	z.lostTokens += c.Generated
	t := z.track[c.Request.ID]
	if t == nil {
		t = z.newTrack(c.Request.ID)
		t.attempts, t.cur = 1, c.Request
	}
	t.rep = nil
	if t.attempts > z.retries {
		z.fail(t, c.Request, reason, now)
		return
	}
	retry := c.Request
	retry.InputLen = c.Request.InputLen + c.Generated
	retry.OutputLen = c.Request.OutputLen - c.Generated
	z.reprefill += retry.InputLen
	z.retried++
	t.cur = retry
	delay := z.backoff
	for i := 1; i < t.attempts; i++ {
		delay += delay
	}
	z.run.kernel.At(now+delay, event{kind: evRetry, a: c.Request.ID, b: t.attempts})
}

// launchRetry re-routes a casualty's next attempt; stale events (the
// request resolved meanwhile) are no-ops.
func (z *resilience) launchRetry(id, attempt int, now units.Seconds) {
	if z.run.err != nil {
		return
	}
	t := z.track[id]
	if t == nil || t.attempts != attempt {
		return
	}
	z.dispatch(t, now)
}

// dispatch routes a tracked request onto a live replica, or — with none
// available — strands it (see strand).
func (z *resilience) dispatch(t *reqTrack, now units.Seconds) {
	r := z.run
	if len(r.eligible) == 0 {
		z.strand(t.cur, now)
		return
	}
	rep := r.choose(t.cur)
	if rep == nil {
		return
	}
	if t.attempts == 0 {
		// A parked arrival that never ran: this is its realised arrival.
		r.inject(rep, t.cur, now)
	} else {
		r.push(rep, t.cur, now)
	}
	if r.plan != nil {
		r.plan.requeued(z, t.cur, rep)
	}
}

// flushWaiting re-dispatches stranded requests when a replacement replica
// goes live.
func (z *resilience) flushWaiting(now units.Seconds) {
	if len(z.run.eligible) == 0 || len(z.waiting) == 0 {
		return
	}
	waiting := z.waiting
	z.waiting = nil
	for _, req := range waiting {
		t := z.track[req.ID]
		if t == nil {
			continue
		}
		z.dispatch(t, now)
	}
}

// fail closes a request's ledger entry as terminally failed; a failed
// conversation turn abandons the rest of its conversation.
func (z *resilience) fail(t *reqTrack, req workload.Request, reason string, at units.Seconds) {
	z.failures = append(z.failures, FailedRequest{
		ID: req.ID, Class: req.Class, Attempts: t.attempts, Reason: reason, At: at,
	})
	z.resolve(req.ID, t)
	if z.run.plan != nil {
		z.run.plan.failed(z, req, at)
	}
}

// closeLedger terminally fails anything still stranded when the kernel
// drains, so every request is accounted exactly once. It is a backstop: the
// autoscaler stays armed while a request is stranded and boots a
// replacement for it.
func (z *resilience) closeLedger(at units.Seconds) {
	for _, req := range z.waiting {
		t := z.track[req.ID]
		if t == nil {
			continue
		}
		z.fail(t, req, "unserved", at)
	}
	z.waiting = nil
}

// prod multiplies a factor list; an empty list is the identity.
func prod(fs []float64) float64 {
	p := 1.0
	for _, f := range fs {
		p *= f
	}
	return p
}

// removeFactor drops the first occurrence of f (a window's end removes the
// factor its start added).
func removeFactor(fs []float64, f float64) []float64 {
	for i := range fs {
		if fs[i] == f {
			return append(fs[:i], fs[i+1:]...)
		}
	}
	return fs
}
