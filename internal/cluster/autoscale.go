package cluster

import (
	"fmt"

	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// AutoscaleOptions configures the elastic control loop: a deterministic
// controller on the fleet's event clock that watches windowed load signals —
// arrival rate, queue depth per replica, p95 TPOT of the interactive tier
// against the SLO, and KV-pool pressure — and scales the replica set between
// Min and Max. Requests stranded by a fleet that crashed to zero boot a
// replacement themselves, since every per-replica signal reads 0 then.
// Scaling up provisions a replica that warms for WarmUp before taking
// traffic (drawing host power from the moment it is provisioned); scaling
// down drains a replica: it finishes its in-flight requests, accepts no new
// ones, and powers off (stops accruing energy) once empty.
//
// All decisions read only simulated state at control-tick instants, so an
// autoscaled run is exactly as deterministic as a static one: a fixed seed
// reproduces the same scale events, the same request placements, and the
// same energy ledger, however its decode windows are split.
type AutoscaleOptions struct {
	// Min and Max bound the powered-on fleet (1 ≤ Min ≤ Max).
	Min, Max int
	// Interval is the control period: signals are windowed over it and
	// decisions fire at its boundaries. Zero selects 1 s.
	Interval units.Seconds
	// WarmUp is the provisioning latency: a scaled-up replica starts taking
	// traffic WarmUp after the decision. Zero means instant boot.
	WarmUp units.Seconds
	// CoolDown is the minimum gap between consecutive scale decisions, so
	// one load swing does not trigger a flapping burst. Zero re-evaluates
	// every tick.
	CoolDown units.Seconds
	// SLO is the interactive-tier TPOT objective the controller defends. A
	// zero TokenLatency disables the latency triggers, leaving queue and KV
	// pressure in charge.
	SLO workload.SLO
	// UpTPOTFactor scales up when the window's interactive p95 TPOT exceeds
	// UpTPOTFactor × SLO. Zero selects 1.
	UpTPOTFactor float64
	// UpQueue scales up when outstanding requests per active replica exceed
	// it. Zero selects the replica admission cap (MaxBatch).
	UpQueue float64
	// DownQueue permits scale-down only while outstanding requests per
	// active replica sit below it. Zero selects MaxBatch/4.
	DownQueue float64
	// UpArrivalRate scales up when windowed arrivals/s per active replica
	// exceed it. Zero disables the trigger (the rate is still recorded on
	// every scale event).
	UpArrivalRate float64
}

func (o AutoscaleOptions) validate() error {
	if o.Min < 1 || o.Max < o.Min {
		return fmt.Errorf("cluster: autoscale bounds [%d, %d] need 1 ≤ min ≤ max", o.Min, o.Max)
	}
	for _, d := range [...]struct {
		name string
		v    units.Seconds
	}{
		{"Interval", o.Interval}, {"WarmUp", o.WarmUp}, {"CoolDown", o.CoolDown},
		{"SLO.TokenLatency", o.SLO.TokenLatency},
	} {
		if !finiteNonNeg(d.v) {
			return fmt.Errorf("cluster: autoscale %s %v must be finite and ≥ 0", d.name, d.v)
		}
	}
	for _, x := range [...]struct {
		name string
		v    float64
	}{
		{"UpTPOTFactor", o.UpTPOTFactor}, {"UpQueue", o.UpQueue},
		{"DownQueue", o.DownQueue}, {"UpArrivalRate", o.UpArrivalRate},
	} {
		if !finiteNonNeg(x.v) {
			return fmt.Errorf("cluster: autoscale %s %v must be finite and ≥ 0", x.name, x.v)
		}
	}
	return nil
}

// withDefaults resolves the zero-value knobs against the fleet's admission
// cap.
func (o AutoscaleOptions) withDefaults(maxBatch int) AutoscaleOptions {
	if o.Interval == 0 {
		o.Interval = 1
	}
	if o.UpTPOTFactor == 0 {
		o.UpTPOTFactor = 1
	}
	if o.UpQueue == 0 {
		o.UpQueue = float64(maxBatch)
	}
	if o.DownQueue == 0 {
		o.DownQueue = float64(maxBatch) / 4
	}
	return o
}

// The control loop's fixed thresholds: scale-down needs the window's
// interactive p95 TPOT below downTPOTFactor × SLO, and an active replica
// whose outstanding KV demand exceeds kvPressure of its pool scales the
// fleet up (and bars scale-down).
const (
	downTPOTFactor = 0.5
	kvPressure     = 0.9
)

// DefaultAutoscale returns a ready-to-use elastic configuration for the
// given fleet bounds and interactive SLO: 1 s control period, 2 s warm-up,
// one control period of cool-down, and the default signal thresholds.
func DefaultAutoscale(min, max int, slo workload.SLO) *AutoscaleOptions {
	return &AutoscaleOptions{
		Min:      min,
		Max:      max,
		Interval: 1,
		WarmUp:   2,
		CoolDown: 1,
		SLO:      slo,
	}
}

// ScaleAction names one elastic transition.
type ScaleAction string

// Scale actions, in lifecycle order.
const (
	// ScaleUp provisions a new replica (it serves after warm-up).
	ScaleUp ScaleAction = "scale-up"
	// ScaleLive marks a warmed-up replica joining the eligible set.
	ScaleLive ScaleAction = "live"
	// ScaleDrain stops routing to a replica; it finishes in-flight work.
	ScaleDrain ScaleAction = "drain"
	// ScaleStop powers a drained replica off.
	ScaleStop ScaleAction = "stop"
)

// ScaleEvent records one elastic transition with the windowed signals that
// drove it — the fleet's scaling audit trail.
type ScaleEvent struct {
	At      units.Seconds
	Action  ScaleAction
	Replica int
	// Active is the eligible replica count after the action.
	Active int
	// Window signals at decision time (zero for live/stop bookkeeping
	// events): outstanding requests per active replica, interactive p95
	// TPOT, the worst per-replica KV-demand fraction, and arrivals/s per
	// active replica.
	QueuePerReplica float64
	TPOTP95         units.Seconds
	KVPressure      float64
	ArrivalRate     float64
}

// scaler is the live state of the elastic control loop for one fleet run.
type scaler struct {
	opt AutoscaleOptions
	run *fleetRun

	// Window accumulators, reset at each tick.
	arrivals int
	tpots    []float64

	lastAction units.Seconds
	events     []ScaleEvent
	peak       int // most replicas ever powered on concurrently
}

// observeStep reads completion signals off one replica step: interactive
// TPOT samples for the latency window, and the moment a draining replica
// runs empty, when it powers off (not at the next tick). It runs mid-phase.
// The samples go straight into the window: the tick reads them only as a
// sorted multiset, so the order in which replicas add them does not matter.
// The power-off is recorded at once; the barrier puts the phase's events in
// time order (see fleetRun.advance).
func (s *scaler) observeStep(rep *Replica, done []serving.Completion) {
	for _, c := range done {
		if c.Request.Class == workload.ClassInteractive && c.Metrics.OutputTokens > 1 {
			s.tpots = append(s.tpots, c.Metrics.TPOT.Seconds())
		}
	}
	if rep.state == repDraining && len(done) > 0 && rep.stepper.Outstanding() == 0 {
		s.stop(rep, rep.stepper.Now())
	}
}

// stop powers a drained replica off at the given instant.
func (s *scaler) stop(rep *Replica, at units.Seconds) {
	rep.state = repStopped
	rep.stopAt = at
	s.record(ScaleEvent{At: at, Action: ScaleStop, Replica: rep.ID, Active: len(s.run.eligible)})
}

func (s *scaler) record(ev ScaleEvent) { s.events = append(s.events, ev) }

// poweredOn counts replicas currently drawing power (everything not
// stopped). A crashed replica is dead hardware, not headroom: it stops
// counting against Max, which is what lets the control loop boot its
// replacement.
func (s *scaler) poweredOn() int {
	n := 0
	for _, rep := range s.run.reps {
		if rep.state != repStopped && rep.state != repFailed {
			n++
		}
	}
	return n
}

// tick is the control loop body, fired every Interval on the fleet's event
// kernel. It reads the windowed signals, applies the scale-up triggers (any
// one suffices) or the scale-down guards (all must hold), resets the window,
// and re-arms itself while the fleet still has pending events or stranded
// requests — when neither is left the run is over and the loop retires,
// which is what lets the kernel drain.
func (s *scaler) tick(now units.Seconds) {
	r := s.run
	if r.err != nil {
		return
	}
	// No replica is synced: one the driver left behind finishes nothing
	// before now, so everything the tick reads of it (state, Outstanding,
	// KVDemand, whether it is armed, its TPOT samples) is already what a
	// sync would show. The one clock read is an idle victim's, and an idle
	// replica is never left behind.

	// Windowed signals over the active set.
	act, warming := 0, 0
	queue := 0
	kvMax := 0.0
	for _, rep := range r.reps {
		switch rep.state {
		case repWarming:
			warming++
		case repActive:
			act++
			queue += rep.stepper.Outstanding()
			if kvCap := rep.engine.Sys.KVCapacity().Bytes(); kvCap > 0 {
				if f := units.Ratio(rep.stepper.KVDemand(), rep.engine.Sys.KVCapacity()); f > kvMax {
					kvMax = f
				}
			}
		}
	}
	// An all-failed window (every active replica crashed between ticks) has
	// act == 0: the per-replica signals are vacuously zero rather than the
	// 0/0 NaN that would otherwise flow into the scale-event audit trail.
	queuePer, ratePer := 0.0, 0.0
	if act > 0 {
		queuePer = float64(queue) / float64(act)
		ratePer = float64(s.arrivals) / s.opt.Interval.Seconds() / float64(act)
	}
	// Take the percentile in place: same multiset every run, no copy, no
	// re-sort of anything but this window's samples.
	tpot95 := 0.0
	if len(s.tpots) > 0 {
		tpot95 = stats.PercentileInPlace(s.tpots, 95)
	}
	sig := ScaleEvent{At: now, QueuePerReplica: queuePer,
		TPOTP95: units.Seconds(tpot95), KVPressure: kvMax, ArrivalRate: ratePer}

	slo := s.opt.SLO.TokenLatency.Seconds()
	cooled := now-s.lastAction >= s.opt.CoolDown
	// Requests stranded with no replica active or warming (the fleet
	// crashed to zero) wait for a replacement that every per-replica signal,
	// reading 0 with none active, would never call: the strand itself is
	// the trigger.
	stranded := r.resil != nil && len(r.resil.waiting) > 0

	// Max bounds the powered-on fleet, so a still-draining replica counts
	// against headroom exactly like an active one.
	up := cooled && s.poweredOn() < s.opt.Max &&
		((stranded && act == 0 && warming == 0) ||
			(slo > 0 && tpot95 > s.opt.UpTPOTFactor*slo) ||
			queuePer > s.opt.UpQueue ||
			kvMax > kvPressure ||
			(s.opt.UpArrivalRate > 0 && ratePer > s.opt.UpArrivalRate))
	switch {
	case up:
		rep, err := r.addReplica(now, now+s.opt.WarmUp, repWarming)
		if err != nil {
			r.err = err
			return
		}
		if on := s.poweredOn(); on > s.peak {
			s.peak = on
		}
		sig.Action, sig.Replica, sig.Active = ScaleUp, rep.ID, len(r.eligible)
		s.record(sig)
		s.lastAction = now
		r.kernel.At(rep.liveAt, event{kind: evLive, a: rep.ID})

	case cooled && act > s.opt.Min && warming == 0 &&
		(slo <= 0 || tpot95 < downTPOTFactor*slo) &&
		queuePer < s.opt.DownQueue && kvMax < kvPressure:
		// Drain the least-loaded active replica (ties: the youngest), so
		// the in-flight work it must finish is minimal. Replicas holding a
		// live closed-loop conversation are not drainable: the
		// conversation's KV context pins its follow-ups here.
		var victim *Replica
		for _, rep := range r.reps {
			if rep.state != repActive || rep.holds > 0 {
				continue
			}
			if victim == nil || rep.stepper.Outstanding() <= victim.stepper.Outstanding() {
				victim = rep
			}
		}
		if victim == nil {
			break
		}
		victim.state = repDraining
		r.rebuildEligible()
		sig.Action, sig.Replica, sig.Active = ScaleDrain, victim.ID, len(r.eligible)
		s.record(sig)
		s.lastAction = now
		if victim.stepper.Outstanding() == 0 {
			// Already idle: it powers off at the decision instant (its own
			// clock may lead the fleet clock if its last iteration committed
			// past this tick).
			at := now
			if t := victim.stepper.Now(); t > at {
				at = t
			}
			s.stop(victim, at)
		}
	}

	// Reset the window and re-arm. Replica steps live outside the kernel,
	// so the liveness check must count them too, and a stranded request
	// keeps the loop alive until a replacement boots for it.
	s.arrivals = 0
	s.tpots = s.tpots[:0]
	if r.kernel.Pending() > 0 || r.stepsPending() || stranded {
		r.kernel.At(now+s.opt.Interval, event{kind: evTick})
	}
}

// live activates a warmed-up replica at the end of its warm-up.
func (s *scaler) live(rep *Replica, now units.Seconds) {
	r := s.run
	// A replica that crashed while warming stays dead: it never goes live,
	// so no arrival can reach its failed stepper.
	if r.err != nil || rep.state != repWarming {
		return
	}
	rep.state = repActive
	r.rebuildEligible()
	s.record(ScaleEvent{At: now, Action: ScaleLive, Replica: rep.ID, Active: len(r.eligible)})
	if r.resil != nil {
		// Failover casualties stranded with no live replica land on the
		// replacement the moment it activates.
		r.resil.flushWaiting(now)
	}
}
