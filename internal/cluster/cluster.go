// Package cluster simulates fleet-level LLM serving: N independent replicas
// — each a complete PAPI or baseline system running mixed continuous
// batching — consume one arrival-driven request stream behind a pluggable
// router. This is the layer the paper's single-engine view (§5) stops short
// of: serving heavy traffic is a coordination problem across replicated
// memory-compute units, so throughput, tail latency, and SLO attainment
// depend on how arrivals are spread as much as on each replica's scheduler.
//
// Replicas advance through serving.Stepper under one barrier driver. The
// internal/sim event kernel holds only fleet events — arrivals, follow-up
// turns, autoscaler ticks, activations, fault edges, timeout deadlines and
// retries, each a small value that fleetRun.fire dispatches — and each one
// is a barrier: before it fires, every replica that could finish a request
// before the barrier instant steps on its own up to it, inline on the
// driver goroutine in replica order, and an event that reads more of a
// replica than its load signals first steps that replica up to its instant
// (see wake.go). Same-instant kernel events fire FIFO and before any
// replica step at that instant, so a fixed seed reproduces the same fleet
// trace run-to-run.
//
// One arrival feed drives a fleet behind three entry points: Run consumes a
// pre-generated open-loop request stream (Poisson, bursty, diurnal, or a
// replayed workload.Trace), RunSeq a lazily generated one, and RunPlan a
// closed-loop multi-turn conversation plan, whose first turns go through
// the feed while each follow-up arrives think-time after the previous
// answer completes and carries the grown context back to the same replica.
// All three produce a FleetResult whose Stream field records the realised
// arrivals for byte-stable trace export.
//
// Fleets need not be homogeneous: NewFromSpecs takes a list of declarative
// design specs and provisions replicas toward the list's design ratio (a
// repeated entry weights its design), so a PAPI+baseline mixed fleet is one
// argument away and elastic fleets keep the mix as they grow. Every replica
// prices its own kernels on its own engine, so the replicas share no
// mutable state, and FleetResult splits the fleet metrics per design in
// PerDesign.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/sim"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Options configures a cluster run.
type Options struct {
	// Replicas is the number of identical serving engines (≥ 1). With
	// autoscaling enabled this is the initial fleet size, within
	// [Autoscale.Min, Autoscale.Max].
	Replicas int
	// MaxBatch is each replica's continuous-batching admission cap.
	MaxBatch int
	// Router spreads arrivals over the replicas; nil selects RoundRobin.
	Router Router
	// Serving configures every replica's engine. Each replica derives its
	// acceptance-sampling seed from Serving.Seed plus its ID, so replicas do
	// not replay identical speculation outcomes while the fleet as a whole
	// stays deterministic.
	Serving serving.Options
	// Autoscale, when non-nil, runs the elastic control loop: the fleet
	// grows and shrinks between Autoscale.Min and Autoscale.Max replicas in
	// response to windowed load signals (see AutoscaleOptions). Nil keeps
	// the fleet statically provisioned at Replicas.
	Autoscale *AutoscaleOptions

	// Faults, when non-nil and non-empty, schedules the plan's failure
	// events on the run's event kernel (see internal/faults): replica
	// crashes trigger failover of the lost requests to survivors, straggler
	// and brownout windows stretch the priced kernel latencies. A nil or
	// empty plan leaves every result bit-identical to a fault-free run.
	Faults *faults.Plan
	// Retries bounds failover: a request lost to a crash or timeout is
	// re-routed to a survivor (its grown context re-prefilled) at most
	// Retries times before it terminally fails. Zero retries means the
	// first loss is final.
	Retries int
	// RetryBackoff delays each retry by RetryBackoff × 2^(attempt-1) —
	// deterministic exponential backoff. Zero re-routes at the loss instant.
	RetryBackoff units.Seconds
	// Timeout, when positive, bounds every request attempt: an attempt
	// still outstanding Timeout after its injection is cancelled on its
	// replica and retried under the same bounded-retry policy.
	Timeout units.Seconds

	// RetainRequests keeps every per-request metrics record for
	// FleetResult.Requests, and each replica's per-iteration trace
	// (RLPTrace and IterStats in FleetResult.Replicas). Off by default: at
	// million-request scale the record slice is the run's memory bound, and
	// the streaming FleetResult.Agg already carries the latency
	// distributions — each completion's record is folded into it as the
	// step that finished the request hands it out, and the replica keeps
	// nothing of a finished request, nor does the failover ledger, so a
	// run's per-request state is O(outstanding), not O(total). No fleet
	// code reads the traces, and an elastic fleet would keep one for every
	// replica it ever booted.
	RetainRequests bool
	// RetainStream keeps the realised arrival stream for
	// FleetResult.Stream — needed only when the run will be exported as a
	// replayable trace. Off by default for the same memory reason.
	RetainStream bool

	// Shards is ignored: the barrier driver runs every phase inline, in
	// replica order. A negative value is still rejected.
	//
	// Deprecated: a phase holds too little stepping to pay for handing it
	// to another goroutine, so the shard worker pool is gone and this field
	// no longer changes anything.
	Shards int
}

func (o Options) validate() error {
	if o.Replicas < 1 {
		return fmt.Errorf("cluster: replica count %d must be ≥ 1", o.Replicas)
	}
	if o.MaxBatch <= 0 {
		return fmt.Errorf("cluster: max batch %d must be positive", o.MaxBatch)
	}
	if o.Autoscale != nil {
		if err := o.Autoscale.validate(); err != nil {
			return err
		}
		if o.Replicas < o.Autoscale.Min || o.Replicas > o.Autoscale.Max {
			return fmt.Errorf("cluster: initial replica count %d outside autoscale bounds [%d, %d]",
				o.Replicas, o.Autoscale.Min, o.Autoscale.Max)
		}
	}
	if o.Retries < 0 {
		return fmt.Errorf("cluster: retry bound %d must be ≥ 0", o.Retries)
	}
	if !finiteNonNeg(o.RetryBackoff) {
		return fmt.Errorf("cluster: retry backoff %v must be finite and ≥ 0", o.RetryBackoff)
	}
	if !finiteNonNeg(o.Timeout) {
		return fmt.Errorf("cluster: request timeout %v must be finite and ≥ 0", o.Timeout)
	}
	if o.Shards < 0 {
		return fmt.Errorf("cluster: shard count %d must be ≥ 0", o.Shards)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// finiteNonNeg reports whether x, a duration or a threshold, is finite and
// non-negative; NaN fails every comparison, so it is rejected too.
func finiteNonNeg[T ~float64](x T) bool {
	return x >= 0 && !math.IsInf(float64(x), 1)
}

// resilienceActive reports whether the run needs the failure machinery at
// all. When false the run takes exactly the pre-fault code paths, keeping
// every fault-free result bit-identical.
func (o Options) resilienceActive() bool {
	return (o.Faults != nil && !o.Faults.Empty()) || o.Timeout > 0
}

// replicaState is a replica's position in the elastic lifecycle. Statically
// provisioned fleets keep every replica active for the whole run.
type replicaState int

const (
	// repActive replicas take new traffic.
	repActive replicaState = iota
	// repWarming replicas are booting (provisioned but not yet serving);
	// they draw power from bootAt and join the eligible set at liveAt.
	repWarming
	// repDraining replicas finish their in-flight requests but accept no new
	// ones; they stop (and stop accruing energy) once empty.
	repDraining
	// repStopped replicas are powered off.
	repStopped
	// repFailed replicas crashed mid-run (see Options.Faults): their
	// in-flight work was surrendered to failover and they never return. The
	// autoscaler treats the slot as free headroom and may boot a replacement.
	repFailed
)

// String names the state as scale events and debug output spell it.
func (s replicaState) String() string {
	switch s {
	case repActive:
		return "active"
	case repWarming:
		return "warming"
	case repDraining:
		return "draining"
	case repStopped:
		return "stopped"
	case repFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Replica is one serving engine's slot in the fleet, exposing the load
// signals routers balance on.
type Replica struct {
	ID int

	// design is the display name of the hardware design this replica runs
	// (replicas of a mixed fleet differ).
	design string

	engine  *serving.Engine
	stepper *serving.Stepper

	// scheduled says the replica has work and its next step is armed at
	// nextStep. Steps never go on the kernel: the barrier driver advances
	// each armed replica up to the barriers it could be observed at instead,
	// filed at index slot of the run's wake heap (see wake.go).
	scheduled bool
	nextStep  units.Seconds
	slot      int
	// run is the fleet run the replica serves in; Now syncs through it.
	run *fleetRun
	// routed counts requests this replica received.
	routed int
	// agg streams this replica's completion latencies (fed by
	// fleetRun.stepReplica); fleet and per-design aggregates merge these in
	// replica order.
	agg *FleetAggregate

	// Elastic lifecycle (see replicaState). bootAt is the instant the
	// replica powered on (0 for the initial fleet), liveAt when it started
	// taking traffic (bootAt plus warm-up), stopAt when a drained replica
	// powered off.
	state  replicaState
	bootAt units.Seconds
	liveAt units.Seconds
	stopAt units.Seconds
	// holds counts live closed-loop conversations pinned to this replica
	// (their grown KV context lives here, and follow-ups must come back).
	// The autoscaler never drains a replica while it holds one.
	holds int
}

// Outstanding counts the replica's admitted-but-unfinished plus queued
// requests.
func (r *Replica) Outstanding() int { return r.stepper.Outstanding() }

// KVHeadroom returns the free worst-case KV capacity of the replica's
// attention pool, given everything outstanding.
func (r *Replica) KVHeadroom() units.Bytes {
	room := r.engine.Sys.KVCapacity() - r.stepper.KVDemand()
	if room < 0 {
		room = 0
	}
	return room
}

// Now reports the replica's engine-local clock. A router or other caller
// reading it mid-run gets the clock as of the current event: the replica is
// first stepped up to the event instant if the driver had left it behind.
func (r *Replica) Now() units.Seconds {
	if r.run != nil {
		r.run.sync(r)
	}
	return r.stepper.Now()
}

// Design names the hardware design this replica runs.
func (r *Replica) Design() string { return r.design }

// Routed counts the requests the router sent here.
func (r *Replica) Routed() int { return r.routed }

// blueprint is one replica design the fleet cycles through: the design's
// display name and a fresh-system factory (each replica owns its instance).
type blueprint struct {
	name   string
	newSys func() (*design.System, error)
}

// Cluster is a single-use fleet simulation: build, Run once, read the
// FleetResult. (Routers and replicas carry per-run state, so reuse would
// silently leak one run's state into the next.)
type Cluster struct {
	sysName    string
	blueprints []blueprint
	cfg        model.Config
	opt        Options
	ran        bool
}

// New validates and builds a cluster of identical replicas. newSys is
// called once per replica so each engine owns its system instance.
func New(newSys func() *design.System, cfg model.Config, opt Options) (*Cluster, error) {
	if newSys == nil {
		return nil, fmt.Errorf("cluster: nil system factory")
	}
	return newCluster([]func() (*design.System, error){func() (*design.System, error) {
		sys := newSys()
		if sys == nil {
			return nil, fmt.Errorf("cluster: system factory returned nil")
		}
		return sys, nil
	}}, cfg, opt)
}

// NewFromSpecs validates and builds a fleet from declarative design specs:
// one spec provisions a homogeneous fleet, several a mixed one whose
// replicas target the list's design ratio (a repeated entry weights its
// design — see nextBlueprint; elastic fleets restore the ratio as they
// grow after drains). The *initial* fleet must provision every listed spec
// (Replicas ≥ len(specs)); otherwise a design could silently never run
// while still appearing zero-filled in the per-design metrics.
func NewFromSpecs(specs []design.Spec, cfg model.Config, opt Options) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no design specs")
	}
	if opt.Replicas < len(specs) {
		return nil, fmt.Errorf("cluster: %d design specs cannot all be provisioned on %d initial replicas",
			len(specs), opt.Replicas)
	}
	// Snapshot each spec through its byte-stable encoding: Spec's pointer
	// fields alias the caller's values, and replicas are built lazily (at
	// Run and at autoscale scale-ups), so without a snapshot the caller
	// could mutate a design after construction, bypassing the up-front
	// validation and the same-name conflict guard.
	factories := make([]func() (*design.System, error), len(specs))
	for i, spec := range specs {
		data, err := spec.Export()
		if err != nil {
			return nil, err
		}
		snap, err := design.ImportSpec(data)
		if err != nil {
			return nil, err
		}
		factories[i] = snap.Build
	}
	return newCluster(factories, cfg, opt)
}

// NewByName builds a cluster of the named system design.
func NewByName(name string, cfg model.Config, opt Options) (*Cluster, error) {
	spec, err := design.ByName(name)
	if err != nil {
		return nil, err
	}
	return NewFromSpecs([]design.Spec{spec}, cfg, opt)
}

// newCluster probes every blueprint factory once and builds a throwaway
// engine per distinct design, validating each design/model/options
// combination up front rather than at the first replica boot, which an
// elastic fleet may reach only mid-run. A design repeated in the blueprint
// list (a "PAPI,PAPI,A100+AttAcc" ratio list) is probed once. The
// per-design metrics split keys on the display name, so two *different*
// designs sharing a name are rejected here rather than silently merged.
func newCluster(factories []func() (*design.System, error), cfg model.Config, opt Options) (*Cluster, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Router == nil {
		opt.Router = RoundRobin()
	}
	probes := make([]*design.System, len(factories))
	firstByName := map[string]*design.System{}
	var names []string
	for i, factory := range factories {
		probe, err := factory()
		if err != nil {
			return nil, err
		}
		if probe == nil {
			return nil, fmt.Errorf("cluster: system factory returned nil")
		}
		if prior, ok := firstByName[probe.Name]; ok {
			if !reflect.DeepEqual(probe, prior) {
				return nil, fmt.Errorf("cluster: two different designs share the name %q; rename one so the per-design split stays meaningful", probe.Name)
			}
		} else {
			firstByName[probe.Name] = probe
			names = append(names, probe.Name)
		}
		probes[i] = probe
	}
	for _, name := range names {
		if _, err := serving.New(firstByName[name], cfg, opt.Serving); err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, opt: opt, sysName: strings.Join(names, " + ")}
	for i, factory := range factories {
		c.blueprints = append(c.blueprints, blueprint{name: probes[i].Name, newSys: factory})
	}
	return c, nil
}

// mixed reports whether the fleet cycles through more than one distinct
// design.
func (c *Cluster) mixed() bool {
	for _, bp := range c.blueprints[1:] {
		if bp.name != c.blueprints[0].name {
			return true
		}
	}
	return false
}

// fleetRun is the live state of one cluster simulation: the replicas, the
// shared event kernel, the realised arrival stream (for trace export), and
// the closed-loop plan, if any.
type fleetRun struct {
	c      *Cluster
	reps   []*Replica
	kernel *sim.Engine[event]
	err    error
	// eligible caches the replicas currently taking traffic (state active);
	// rebuilt on the rare lifecycle transitions rather than per arrival.
	eligible []*Replica
	// scaler is the elastic control loop; nil for static fleets.
	scaler *scaler
	// stream records every request actually injected, in injection order —
	// the realised arrivals a Trace replays.
	stream []workload.Request
	// feed is the run's arrival feed; plan is RunPlan's conversation state,
	// nil for open-loop runs.
	feed *arrivalFeed
	plan *convPlan
	// resil is the failure machinery (crash failover, timeouts, bounded
	// retries, degradation windows); nil unless Options arm it, so
	// fault-free runs take exactly the pre-fault code paths.
	resil *resilience
	// wakes holds the armed replicas by wake instant; due is advance's and
	// syncAll's scratch list of the replicas they drive.
	wakes wakeHeap
	due   []*Replica
}

// newFleetRun builds the replica engines and the event kernel.
func (c *Cluster) newFleetRun() (*fleetRun, error) {
	r := &fleetRun{c: c}
	r.kernel = sim.New(r.fire)
	for i := 0; i < c.opt.Replicas; i++ {
		if _, err := r.addReplica(0, 0, repActive); err != nil {
			return nil, err
		}
	}
	r.rebuildEligible()
	if c.opt.resilienceActive() {
		r.resil = newResilience(r)
		r.resil.schedulePlan()
	}
	if c.opt.Autoscale != nil {
		opt := c.opt.Autoscale.withDefaults(c.opt.MaxBatch)
		r.scaler = &scaler{opt: opt, run: r, peak: c.opt.Replicas,
			lastAction: units.Seconds(math.Inf(-1))}
		r.kernel.At(opt.Interval, event{kind: evTick})
	}
	return r, nil
}

// eventKind names what a fleet event does when it fires; a and b are the
// event's operands.
type eventKind uint8

const (
	// evArrival routes the arrival feed's earliest request.
	evArrival eventKind = iota
	// evFollowUp launches a conversation's next turn: a is the
	// conversation's index in the plan, b the carried context in tokens.
	evFollowUp
	// evTick is an autoscaler control tick.
	evTick
	// evLive activates a warmed-up replica: a is its ID.
	evLive
	// evDeadline expires an attempt and evRetry launches a casualty's next
	// one: a is the request ID, b the attempt.
	evDeadline
	evRetry
	// The fault-plan edges: a is the fault's index in the plan.
	evCrash
	evStragglerBegin
	evStragglerEnd
	evBrownoutBegin
	evBrownoutEnd
)

// event is one fleet event on the run's kernel: its kind and two operands
// whose meaning the kind fixes. Each event carries its own data, so arming
// one allocates nothing.
type event struct {
	kind eventKind
	a, b int
}

// fire is the kernel's fire function: it dispatches one fleet event at its
// instant.
//
//papivet:noalloc
func (r *fleetRun) fire(now units.Seconds, ev event) {
	z := r.resil
	switch ev.kind {
	case evArrival:
		r.feed.fire(now)
	case evFollowUp:
		r.plan.launch(r, ev.a, ev.b, now)
	case evTick:
		r.scaler.tick(now)
	case evLive:
		r.scaler.live(r.reps[ev.a], now)
	case evDeadline:
		z.checkTimeout(ev.a, ev.b, now)
	case evRetry:
		z.launchRetry(ev.a, ev.b, now)
	case evCrash:
		z.crash(z.plan.Faults[ev.a].Replica, now)
	case evStragglerBegin:
		f := z.plan.Faults[ev.a]
		z.stragglerBegin(f.Replica, f.Factor, now)
	case evStragglerEnd:
		f := z.plan.Faults[ev.a]
		z.stragglerEnd(f.Replica, f.Factor, now)
	case evBrownoutBegin:
		z.brownoutBegin(z.plan.Faults[ev.a].Factor, now)
	case evBrownoutEnd:
		z.brownoutEnd(z.plan.Faults[ev.a].Factor, now)
	}
}

// nextBlueprint picks the design to provision next: the design most
// under-represented among the replicas that will take traffic (active and
// warming), relative to the blueprint list's target ratio (largest
// deficit; ties resolve in blueprint order, so the selection is
// deterministic). Building a fleet from empty reproduces an interleaved
// list order; for an elastic fleet this restores the design mix that
// load-based drains erode — the autoscaler's victim choice ignores
// designs, so without it repeated drain/grow cycles could eliminate one
// design from the active fleet entirely.
func (r *fleetRun) nextBlueprint() blueprint {
	bps := r.c.blueprints
	if len(bps) == 1 {
		return bps[0]
	}
	target := make(map[string]int, len(bps))
	for _, bp := range bps {
		target[bp.name]++
	}
	have := map[string]int{}
	inService := 0
	for _, rep := range r.reps {
		if rep.state == repActive || rep.state == repWarming {
			have[rep.design]++
			inService++
		}
	}
	best, bestDeficit := bps[0], math.Inf(-1)
	seen := map[string]bool{}
	for _, bp := range bps {
		if seen[bp.name] {
			continue
		}
		seen[bp.name] = true
		share := float64(target[bp.name]) / float64(len(bps))
		if deficit := share*float64(inService+1) - float64(have[bp.name]); deficit > bestDeficit {
			best, bestDeficit = bp, deficit
		}
	}
	return best
}

// addReplica builds one more replica engine from the next blueprint (see
// nextBlueprint). A warming replica powers on at bootAt (its clock starts
// there, so busy/idle accounting — and host energy — covers only its
// powered-on span) and takes traffic from liveAt; the caller schedules the
// activation event.
func (r *fleetRun) addReplica(bootAt, liveAt units.Seconds, state replicaState) (*Replica, error) {
	bp := r.nextBlueprint()
	opt := r.c.opt.Serving
	opt.Seed += int64(len(r.reps))
	// Without fleet-level retention each completion's record is read
	// exactly once, off the step that finished it, so the engine drops its
	// finished requests — the constant-memory path. (The failure machinery
	// only ever touches outstanding requests, so it is indifferent; keying
	// on RetainRequests alone also keeps an armed no-op fault plan
	// bit-identical to a fault-free run.)
	opt.DiscardCompleted = !r.c.opt.RetainRequests
	sys, err := bp.newSys()
	if err != nil {
		return nil, err
	}
	eng, err := serving.New(sys, r.c.cfg, opt)
	if err != nil {
		return nil, err
	}
	st, err := eng.NewStreamStepper(nil, r.c.opt.MaxBatch)
	if err != nil {
		return nil, err
	}
	if bootAt > 0 {
		if err := st.StartAt(bootAt); err != nil {
			return nil, err
		}
	}
	rep := &Replica{ID: len(r.reps), design: bp.name, engine: eng, stepper: st, slot: -1, run: r,
		state: state, bootAt: bootAt, liveAt: liveAt, agg: newFleetAggregate()}
	r.reps = append(r.reps, rep)
	if n := len(r.reps); cap(r.wakes) < n {
		r.wakes = slices.Grow(r.wakes, n-len(r.wakes))
	}
	if r.resil != nil {
		// A replica born inside a degradation window serves at the
		// window's reduced bandwidth from its first iteration.
		r.resil.applyPerturb(rep)
	}
	return rep, nil
}

// rebuildEligible refreshes the routable-replica cache after a lifecycle
// transition.
func (r *fleetRun) rebuildEligible() {
	r.eligible = r.eligible[:0]
	for _, rep := range r.reps {
		if rep.state == repActive {
			r.eligible = append(r.eligible, rep)
		}
	}
}

// stepReplica advances one replica by one Step at its armed instant, its
// window bounded by horizon: it absorbs any idle gap, steps the engine,
// hands each completion to the autoscaler window, the failure ledger, the
// conversation plan and the replica's streaming aggregate — the always-on
// constant-memory metrics path, which reads each record straight off the
// step that finished it — and re-arms the next step unless the replica had
// no work left. A step writes the fleet in place: a step error stops the
// run, and a closed-loop follow-up goes on the kernel at once. It returns
// the horizon capped by the follow-ups it launched: the replica must not
// step at or past one before it fires.
//
//papivet:noalloc
func (r *fleetRun) stepReplica(rep *Replica, horizon units.Seconds) units.Seconds {
	// A step armed before a crash must not touch the dead engine: its
	// clock is frozen at the failure instant.
	if rep.state == repFailed {
		return horizon
	}
	rep.stepper.AdvanceTo(rep.nextStep)
	rep.stepper.SetHorizon(horizon)
	drained := !rep.stepper.HasWork()
	done, err := rep.stepper.Step()
	if err != nil {
		r.err = err
		return horizon
	}
	if r.scaler != nil {
		r.scaler.observeStep(rep, done)
	}
	for _, c := range done {
		if r.resil != nil {
			r.resil.finished(c.Request.ID)
		}
		if r.plan != nil {
			horizon = min(horizon, r.plan.finished(r, rep, c.Request))
		}
		rep.agg.observe(c.Metrics)
	}
	if !drained {
		rep.scheduled, rep.nextStep = true, rep.stepper.Now()
	}
	return horizon
}

// push delivers a request to a replica and re-arms its steps, without
// recording a stream arrival — the failover path's re-injection, where the
// request's original arrival is already on record.
func (r *fleetRun) push(rep *Replica, req workload.Request, now units.Seconds) bool {
	// Under a block store Push prices the resident prefix, which the
	// replica's own steps change; and a request that arrived before now — a
	// retry keeps its first arrival — is admissible at once, so the replica
	// must not take it at a boundary it had left behind.
	if kv := r.c.opt.Serving.KV; kv != nil && kv.Sharing || req.Arrival < now {
		r.sync(rep)
	}
	if err := rep.stepper.Push(req); err != nil {
		r.err = err
		return false
	}
	rep.routed++
	if r.scaler != nil {
		r.scaler.arrivals++
	}
	if r.resil != nil {
		r.resil.noteInject(rep, req, now)
	}
	if !rep.scheduled {
		// An idle replica's clock may lead the fleet clock (it committed
		// its last iteration past this arrival); it can only take new work
		// at its own boundary.
		rep.scheduled, rep.nextStep = true, max(now, rep.stepper.Now())
	}
	r.rearm(rep)
	return true
}

// inject pushes a request into a replica, recording the realised arrival
// when the run retains its stream (Options.RetainStream) — recording every
// arrival of a million-request run would defeat the constant-memory path.
func (r *fleetRun) inject(rep *Replica, req workload.Request, now units.Seconds) {
	if r.push(rep, req, now) && r.c.opt.RetainStream {
		r.stream = append(r.stream, req)
	}
}

// route picks a replica for an arriving request via the cluster's router and
// injects it. The router only sees the eligible (active) replicas: warming
// replicas are still booting and draining replicas accept no new work.
// During a brownout window, batch-class open-loop arrivals are parked until
// the window lifts (graceful degradation: interactive traffic keeps the
// thinned bandwidth).
func (r *fleetRun) route(req workload.Request, now units.Seconds) *Replica {
	if r.resil != nil && r.resil.shedArrival(req) {
		return nil
	}
	if len(r.eligible) == 0 && r.resil != nil {
		// Every replica is down (faults can empty a static fleet): the
		// arrival strands like a failover casualty instead of panicking the
		// router — parked for a replacement boot, or terminally failed.
		r.resil.strand(req, now)
		return nil
	}
	rep := r.choose(req)
	if rep != nil {
		r.inject(rep, req, now)
	}
	return rep
}

// choose asks the router for one of the eligible replicas. An out-of-range
// choice is a router bug: it stops the run with an error naming the router
// and returns nil. Fresh arrivals (route) and failover retries
// (resilience.dispatch) both choose here.
func (r *fleetRun) choose(req workload.Request) *Replica {
	idx := r.c.opt.Router.Route(req, r.eligible)
	if idx < 0 || idx >= len(r.eligible) {
		r.err = fmt.Errorf("cluster: router %s chose invalid replica %d of %d",
			r.c.opt.Router.Name(), idx, len(r.eligible))
		return nil
	}
	return r.eligible[idx]
}

// drain is the fleet driver: it runs the simulation to completion, the
// same way for Run, RunSeq and RunPlan. Every kernel event is a barrier.
// Before it fires, every armed replica that could finish a request before
// the barrier instant, in replica order, advances alone up to it (steps
// strictly below it: events at the barrier instant belong to the kernel and
// fire first); then the event fires, syncing any replica it reads more of
// (see wake.go).
//
// Two arguments make the phase sound, so that the result equals a
// one-step-at-a-time walk in time order:
//
//   - Pinned replica. Between barriers a replica can interact only with
//     itself: arrivals, ticks, activations, fault edges, deadlines and
//     retries are all kernel events, at or after the barrier. The one
//     event a step itself creates is a closed-loop follow-up turn, and it
//     can touch only the replica its conversation is pinned to — the one
//     that finished the previous turn (nothing can unpin it before the
//     barrier, and a replica holding a conversation is never drained). The
//     follow-up goes on the kernel at once, that replica alone stops at
//     its earliest follow-up (stepReplica caps its horizon), and the next
//     pass takes any that land before the barrier first; the other
//     replicas, already past them, cannot tell. Nothing else a step writes
//     — the run error, the ledger entries of its own requests, the
//     autoscaler window's samples — is read by another replica's drive.
//   - Deadline. With Timeout > 0, a request that finishes inside a phase
//     was outstanding when the phase began, so its own deadline was still
//     pending: at or after the barrier. Its follow-up arrives no earlier
//     than it was injected, so the follow-up's deadline, and any retry the
//     follow-up causes, land at or after the barrier too.
func (r *fleetRun) drain() {
	for r.err == nil {
		barrier, ok := r.kernel.NextAt()
		if !ok {
			if !r.stepsPending() {
				return
			}
			// No kernel events left: the remaining replicas run dry.
			barrier = units.Seconds(math.Inf(1))
		}
		r.advance(barrier)
		// The drives may have put follow-ups on the kernel before the
		// barrier; then the next pass takes them first.
		if t, ok := r.kernel.NextAt(); ok && t == barrier && r.err == nil {
			r.kernel.Step()
		}
	}
}

// advance drives every replica whose wake falls below the barrier, one
// after another in replica order, re-keying each in the wake heap, then
// puts the power-offs the drives recorded in time order (a phase records no
// other scale event; ties stay in replica order). A replica armed below the
// barrier whose quiet bound reaches it stays behind: nothing at the barrier
// can tell (see wake.go), and a barrier of +Inf still runs every replica
// dry. A step error stops the phase: the replicas after it do not drive.
func (r *fleetRun) advance(barrier units.Seconds) {
	due := r.due[:0]
	for len(r.wakes) > 0 && r.wakes[0].wake < barrier {
		rep := r.wakes[0].rep
		r.wakes.remove(rep)
		due = append(due, rep)
	}
	if len(due) == 0 {
		return
	}
	slices.SortFunc(due, byID)
	stops := 0
	if r.scaler != nil {
		stops = len(r.scaler.events)
	}
	for _, rep := range due {
		r.driveReplica(rep, barrier)
		r.rearm(rep)
	}
	r.due = due[:0]
	if r.scaler != nil {
		slices.SortStableFunc(r.scaler.events[stops:], func(a, b ScaleEvent) int {
			return cmp.Compare(a.At, b.At)
		})
	}
}

// driveReplica advances one replica's armed steps, in order, up to the
// barrier, capped by the earliest follow-up turn its own steps launched.
// The replica parks drained or re-armed at or after that horizon, or stops
// at a step error.
//
//papivet:noalloc
func (r *fleetRun) driveReplica(rep *Replica, barrier units.Seconds) {
	for h := barrier; r.err == nil && rep.scheduled && rep.nextStep < h; {
		rep.scheduled = false
		h = r.stepReplica(rep, h)
	}
}

// stepsPending reports whether any replica still has an armed step. Steps
// live outside the kernel, so the drain loop and the autoscaler's re-arm
// check must ask here as well as kernel.Pending. A replica the driver left
// behind has work, so it is armed whether or not it was synced.
func (r *fleetRun) stepsPending() bool { return len(r.wakes) > 0 }

// Run consumes the request stream to completion and returns fleet metrics:
// it is RunSeq over reqs stably sorted by arrival, so simultaneous arrivals
// route in stream order. A slice already in arrival order is read in place;
// any other is copied and sorted first. Run never writes reqs. It may be
// called once per Cluster.
func (c *Cluster) Run(reqs []workload.Request) (*FleetResult, error) {
	return c.RunSeq(sortedSource(reqs))
}

// sortedSource is Run's request source: reqs stably sorted by arrival,
// handed out in order. Generated streams arrive in order, so reqs itself is
// the stream unless some request arrives before its predecessor (a NaN tail
// counts as ordered: arrivesBefore puts NaN last); only then is it copied.
func sortedSource(reqs []workload.Request) func() (workload.Request, bool) {
	stream := reqs
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return arrivesBefore(reqs[i].Arrival, reqs[j].Arrival) }) {
		stream = append([]workload.Request(nil), reqs...)
		sort.SliceStable(stream, func(i, j int) bool { return arrivesBefore(stream[i].Arrival, stream[j].Arrival) })
	}
	i := 0
	return func() (workload.Request, bool) {
		if i == len(stream) {
			return workload.Request{}, false
		}
		i++
		return stream[i-1], true
	}
}

// arrivesBefore orders the feed's stable sorts with NaN last, where the feed
// rejects it; compared in place, a NaN would leave its neighbours unsorted.
func arrivesBefore(a, b units.Seconds) bool {
	return a < b || math.IsNaN(b.Seconds()) && !math.IsNaN(a.Seconds())
}

// RunSeq consumes a lazily generated open-loop request stream to
// completion: next is called once per request, in arrival order (finite,
// non-decreasing arrivals; a negative arrival means "already waiting at
// start" and clamps to 0), until it reports no more, and never after. Only
// the arrivals up to the next later instant are ever buffered, so a
// million-request run pays no per-request memory up front — the fleet
// companion to workload.Scenario.Each. RunSeq may be called once per
// Cluster, in place of Run; an empty stream does not consume the cluster.
func (c *Cluster) RunSeq(next func() (workload.Request, bool)) (*FleetResult, error) {
	if next == nil {
		return nil, fmt.Errorf("cluster: nil request source")
	}
	return c.run(next, nil, (*fleetRun).drain)
}

// run is the body Run, RunSeq and RunPlan share: it feeds next — an
// open-loop source, or a plan's first turns — through the arrival feed and
// lets drive run the fleet to completion. drive is always fleetRun.drain outside the
// equivalence tests, which pass their time-order reference instead.
func (c *Cluster) run(next func() (workload.Request, bool), plan *convPlan, drive func(*fleetRun)) (*FleetResult, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run may only be called once per cluster")
	}
	first, ok := next()
	if !ok {
		return nil, fmt.Errorf("cluster: empty request stream")
	}
	c.ran = true

	r, err := c.newFleetRun()
	if err != nil {
		return nil, err
	}
	r.plan = plan
	r.feed = &arrivalFeed{r: r, next: next}
	r.feed.schedule(first)
	drive(r)
	if r.err != nil {
		return nil, r.err
	}
	want := r.feed.total
	if plan != nil {
		want = plan.turns
	}
	return aggregate(r, want)
}

// arrivalFeed is the one open-loop arrival path, behind Run, RunSeq and
// RunPlan's first turns: it pulls requests from next as the run reaches them
// and puts each on the kernel at its arrival instant. Arrivals are scheduled
// at non-decreasing instants and fire in (at, seq) order, hence in the order
// they were scheduled, so the feed keeps them in a FIFO (queue[head:]) and
// each arrival event routes the FIFO's head.
type arrivalFeed struct {
	r     *fleetRun
	next  func() (workload.Request, bool)
	done  bool // next reported no more; it is never called again
	queue []workload.Request
	head  int
	// lastAt is the newest scheduled instant (0 before the first, which
	// clamps to ≥ 0).
	lastAt units.Seconds
	total  int // requests scheduled
}

// schedule puts one request on the kernel at its arrival instant, after
// checking that the instant is finite and not before its predecessor's.
func (f *arrivalFeed) schedule(req workload.Request) {
	at := req.Arrival
	if math.IsNaN(at.Seconds()) || math.IsInf(at.Seconds(), 0) {
		f.r.err = fmt.Errorf("cluster: request %d has non-finite arrival %v", req.ID, at)
		return
	}
	// A negative arrival means "already waiting at start", as in the
	// single-engine path; the kernel cannot schedule before time zero.
	if at < 0 {
		at = 0
	}
	if at < f.lastAt {
		f.r.err = fmt.Errorf("cluster: request %d arrives at %v, before its predecessor at %v; RunSeq needs arrival order",
			req.ID, at, f.lastAt)
		return
	}
	f.lastAt = at
	f.total++
	f.queue = append(f.queue, req)
	f.r.kernel.At(at, event{kind: evArrival})
}

// fire routes the earliest scheduled arrival. When that was the newest one,
// the feed first pulls its successors — every request sharing its instant,
// then the first later one — so the kernel always holds the next arrival as
// a barrier, and a same-instant burst routes whole before any replica step
// its routing arms at that instant.
func (f *arrivalFeed) fire(now units.Seconds) {
	req := f.queue[f.head]
	f.head++
	if f.head == len(f.queue) {
		f.queue, f.head = f.queue[:0], 0
		f.pull(now)
	}
	if f.r.err != nil {
		return
	}
	rep := f.r.route(req, now)
	if f.r.plan != nil {
		f.r.plan.routed(req, rep)
	}
}

// pull schedules the successors of the arrival firing at now (see fire).
func (f *arrivalFeed) pull(now units.Seconds) {
	for !f.done && f.r.err == nil {
		req, more := f.next()
		if !more {
			f.done = true
			return
		}
		f.schedule(req)
		if req.Arrival > now {
			return
		}
	}
}

// RunPlan consumes a closed-loop conversation plan to completion: each
// conversation's first turn is routed like any arrival, and every follow-up
// turn arrives think-time after the previous answer completes, carrying the
// full grown context (all prior turns' inputs and outputs plus the new
// prompt tokens) back to the same replica, where its KV footprint and
// attention cost reflect the accumulated history. Every turn is tagged with
// the conversation's prefix group — negative IDs, so a workload generator's
// positive groups can never collide — and each follow-up declares the
// carried context as its shared prefix. With the block-level KV cache
// sharing enabled (Options.Serving.KV), the replica holding the
// conversation adopts those blocks instead of re-prefilling them, and the
// carried bytes are not double-counted against the replica's KV headroom;
// without it, the full history is re-prefilled each turn — an upper bound
// docs/SCENARIOS.md records. A turn that terminally fails abandons the
// rest of its conversation: the later turns are accounted as failed with
// Reason "abandoned". Conversation IDs must be distinct (each keys its own
// prefix group) and think times finite and ≥ 0. RunPlan may be called
// once per Cluster, in place of Run.
func (c *Cluster) RunPlan(convs []workload.Conversation) (*FleetResult, error) {
	if len(convs) == 0 {
		return nil, fmt.Errorf("cluster: empty conversation plan")
	}
	seen := make(map[int]bool, len(convs))
	for _, conv := range convs {
		if len(conv.Turns) == 0 {
			return nil, fmt.Errorf("cluster: conversation %d has no turns", conv.ID)
		}
		if seen[conv.ID] {
			return nil, fmt.Errorf("cluster: conversation ID %d repeats; two histories would share a prefix group", conv.ID)
		}
		seen[conv.ID] = true
		for k, turn := range conv.Turns {
			if !finiteNonNeg(turn.Think) {
				return nil, fmt.Errorf("cluster: conversation %d turn %d think time %v must be finite and ≥ 0", conv.ID, k+1, turn.Think)
			}
		}
	}
	p := newConvPlan(convs)
	return c.run(p.nextFirst, p, (*fleetRun).drain)
}

// convPlan is a closed-loop conversation plan's state in one fleet run.
type convPlan struct {
	// states lists the conversations stably sorted by first-turn arrival;
	// fed counts the first turns handed to the arrival feed.
	states []*convState
	fed    int
	// index maps each turn's request ID to its conversation's index in
	// states (see of); the plan numbers its turns 0 … turns−1.
	index []int32
	turns int // turns in the whole plan
}

// convState tracks one closed-loop conversation through a fleet run: which
// turn is next, how large the context has grown, and which replica holds the
// conversation's KV state (follow-ups stick to it).
type convState struct {
	conv workload.Conversation
	// baseID is the request ID of turn 1; turn k gets baseID + k - 1, so IDs
	// are assigned deterministically up front regardless of completion
	// order.
	baseID int
	next   int // index of the next turn to launch
	rep    *Replica
}

func newConvPlan(convs []workload.Conversation) *convPlan {
	p := &convPlan{states: make([]*convState, len(convs))}
	for i, conv := range convs {
		p.states[i] = &convState{conv: conv, baseID: p.turns, next: 1}
		p.turns += len(conv.Turns)
	}
	sort.SliceStable(p.states, func(a, b int) bool {
		return arrivesBefore(p.states[a].conv.Arrival, p.states[b].conv.Arrival)
	})
	p.index = make([]int32, p.turns)
	for i, st := range p.states {
		for k := range st.conv.Turns {
			p.index[st.baseID+k] = int32(i)
		}
	}
	return p
}

// of returns the conversation a turn belongs to.
func (p *convPlan) of(req workload.Request) *convState { return p.states[p.index[req.ID]] }

// nextFirst is the arrival feed's source: the first turns in plan order,
// stably sorted by arrival.
func (p *convPlan) nextFirst() (workload.Request, bool) {
	if p.fed == len(p.states) {
		return workload.Request{}, false
	}
	st := p.states[p.fed]
	p.fed++
	return workload.Request{
		ID:           st.baseID,
		InputLen:     st.conv.Turns[0].Input,
		OutputLen:    st.conv.Turns[0].Output,
		Arrival:      st.conv.Arrival,
		Conversation: st.conv.ID,
		Turn:         1,
		PrefixGroup:  -(int64(st.conv.ID) + 1),
	}, true
}

// routed pins a conversation where its first turn landed (nil when it was
// stranded).
func (p *convPlan) routed(req workload.Request, rep *Replica) {
	if p.of(req).rep = rep; rep != nil {
		rep.holds++
	}
}

// crashed orphans every conversation homed on a dead replica: its KV state
// is gone, and the next turn re-pins wherever it lands.
func (p *convPlan) crashed(rep *Replica) {
	for _, st := range p.states {
		if st.rep == rep {
			st.rep = nil
		}
	}
}

// requeued re-pins a conversation to the survivor its retried turn landed
// on, which re-prefills the carried context.
func (p *convPlan) requeued(z *resilience, req workload.Request, rep *Replica) {
	st := p.of(req)
	if st.rep == rep {
		return
	}
	if st.rep != nil {
		st.rep.holds--
	}
	st.rep = rep
	rep.holds++
	z.repins++
}

// failed abandons the rest of a conversation whose turn terminally failed:
// each turn not yet launched is accounted once as failed ("abandoned",
// never attempted) at the failure instant, and the conversation releases
// its hold on its replica, which becomes drainable again.
func (p *convPlan) failed(z *resilience, req workload.Request, at units.Seconds) {
	st := p.of(req)
	for ; st.next < len(st.conv.Turns); st.next++ {
		z.failures = append(z.failures, FailedRequest{
			ID: st.baseID + st.next, Class: req.Class, Reason: "abandoned", At: at,
		})
	}
	if st.rep != nil {
		st.rep.holds--
		st.rep = nil
	}
}

// finished runs on the replica that completed a turn, mid-phase, so it
// writes only that replica, the conversation pinned to it and the kernel. It
// arms the conversation's next turn, think-time after the completion, and
// returns its instant; a finished conversation releases its hold instead and
// returns +Inf. The follow-up event carries the finished turn's SeqLen, the
// context the next turn inherits: a retry keeps it, so it is the sum of
// every earlier turn's input and output.
//
//papivet:noalloc
func (p *convPlan) finished(r *fleetRun, rep *Replica, req workload.Request) units.Seconds {
	i := p.index[req.ID]
	st := p.states[i]
	if st.next >= len(st.conv.Turns) {
		rep.holds--
		return units.Seconds(math.Inf(1))
	}
	at := rep.stepper.Now() + st.conv.Turns[st.next].Think
	st.next++
	r.kernel.At(at, event{kind: evFollowUp, a: int(i), b: req.SeqLen()})
	return at
}

// launch injects the follow-up turn that finished armed for conversation i
// of the plan, with the carried context in tokens as its prefix, on the
// conversation's replica. The conversation's next index still points just
// past that turn: nothing moves it in between. When the pinned replica
// died between turns, the turn is routed like a fresh arrival and the
// conversation re-pins to wherever it lands.
//
//papivet:noalloc
func (p *convPlan) launch(r *fleetRun, i, carried int, now units.Seconds) {
	if r.err != nil {
		return
	}
	st := p.states[i]
	turn := st.conv.Turns[st.next-1]
	follow := workload.Request{
		ID: st.baseID + st.next - 1,
		// The follow-up's prompt is the grown context: everything said so
		// far plus the newly typed tokens.
		InputLen:     carried + turn.Input,
		OutputLen:    turn.Output,
		Arrival:      now,
		Conversation: st.conv.ID,
		Turn:         st.next,
		PrefixGroup:  -(int64(st.conv.ID) + 1),
		PrefixLen:    carried,
	}
	rep := st.rep
	if rep == nil || rep.state == repFailed || rep.state == repStopped {
		if nrep := r.route(follow, now); nrep != nil {
			st.rep = nrep
			nrep.holds++
			if r.resil != nil {
				r.resil.repins++
			}
		}
		return
	}
	r.inject(rep, follow, now)
}
