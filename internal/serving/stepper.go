package serving

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Stepper is the resumable core of the serving engine: the iteration loop
// shared by RunBatch and RunContinuous, exposed as an
// admit → decide → iterate → commit cycle that advances by one decode
// window — a run of iterations at a fixed RLP, see window — per Step call on
// a caller-owned clock. This lets a caller — the multi-replica simulator in
// internal/cluster — interleave many engines deterministically on one event
// timeline instead of each run owning its own, bounding every window with
// SetHorizon.
//
// Two modes exist:
//
//   - static (NewBatchStepper): the whole batch is prefilled up front and
//     latencies are measured from run start, reproducing RunBatch;
//   - stream (NewStreamStepper): requests are admitted at iteration
//     boundaries as they arrive (mixed continuous batching), bounded by the
//     admission cap and KV capacity, reproducing RunContinuous. More
//     arrivals may be injected mid-run with Push.
type Stepper struct {
	eng *Engine
	res Result

	all     []*request // every request seen, in input order
	seen    int        // count of requests ever pushed (survives DiscardCompleted)
	pending []*request // arrival-ordered, not yet admitted (stream mode)
	active  []*request // admitted and unfinished
	// queueBuf is pending's whole buffer: dequeue may leave free slots in
	// front of pending, which enqueue reclaims before it grows the buffer.
	queueBuf []*request
	// free heads the list of completed records a discarding stepper keeps
	// for reuse (linked through request.next), so a steady stream allocates
	// only its high-water mark of outstanding requests.
	free *request

	// completed is Step's completion buffer, reused by every window.
	completed []Completion
	maxBatch  int
	static    bool
	clock     units.Seconds
	// lastPlace is the FC placement of the last window, once one has run
	// (Result.Iterations > 0): a window placed differently is a reschedule.
	lastPlace sched.Placement

	// Incremental accounting, so KVDemand, admission checks and the tier
	// test are O(1). Only the lifecycle transitions (newRequest, enqueue,
	// dequeue, place, deactivate, finish, lose) write these, beside the
	// decode window, which grows kvSum by the tokens it commits, and Fail's
	// reset. kvSum is Σ(InputLen+generated) over the active batch, the
	// attention kernel's only KV-length input (see Engine.attnAt).
	// kvDemandAll / kvDemandActive are the worst-case KV footprints of all
	// outstanding / admitted requests. All terms are integer-valued floats
	// far below 2⁵³, so the running sums equal a fresh walk exactly.
	kvSum          int
	kvDemandAll    units.Bytes
	kvDemandActive units.Bytes

	// queued and admitted count the pending and active requests of each
	// tier (see tierOf). A stream is "tiered" while both classes are
	// outstanding: admission is then priority-aware and windows end at the
	// earliest class-boundary event (see macroArrivalBound).
	queued, admitted [2]int

	// intHint is a lower bound on the index of the first interactive-class
	// pending request: pending[:intHint] is all batch-class. firstInteractive
	// advances it lazily and enqueue and dequeue keep it a valid bound, so
	// the priority-admission scan costs amortized O(1) per Step instead of
	// rescanning a deep ready batch backlog on every iteration boundary.
	intHint int

	// kvStore is the block-level KV cache with prefix sharing, nil unless
	// Options.KV enables sharing. With a store, admission runs on block
	// commitments (see kvFits) instead of the byte ledger, and preemption
	// parks leases instead of discarding their state.
	kvStore *kv.Store

	// horizon bounds decode windows (see SetHorizon); +Inf when the stepper
	// owns its whole timeline.
	horizon units.Seconds
	// traceHint sizes the Result traces on first use: exact for static
	// batches (a TLP = 1 batch runs exactly max-output iterations, and
	// speculation only fewer), a modest floor for streams whose length is
	// unknowable up front.
	traceHint int

	// perturb is the fault injector's latency perturbation (see
	// SetPerturbation); perturbed caches whether it is active, because the
	// check sits on the per-iteration hot path.
	perturb   Perturbation
	perturbed bool
	// failed marks a crashed replica's stepper: Fail was called, every
	// outstanding request was surrendered, and the stepper has no work from
	// here on.
	failed bool

	// floor is the shortest decoding iteration the stepper can run (see
	// iterationFloor), priced on first use when floorSet is false.
	floor    units.Seconds
	floorSet bool
	// owed is at most the fewest output tokens any active request still
	// owes: exact at the end of every window, which follows every
	// admission, and only lower once a cancellation or a failure removes
	// work; zero before the first window. QuietUntil reads it instead of
	// walking the batch.
	owed int

	finalized bool
}

// NewBatchStepper builds a static-batching stepper: every request is
// prefilled immediately and decode iterations run until the batch drains.
func (e *Engine) NewBatchStepper(reqs []workload.Request) (*Stepper, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serving: empty batch")
	}
	if err := e.checkKVCapacity(reqs); err != nil {
		return nil, err
	}
	s := &Stepper{
		eng:      e,
		res:      Result{System: e.Sys.Name, Model: e.Cfg.Name},
		maxBatch: len(reqs),
		static:   true,
		horizon:  units.Seconds(math.Inf(1)),
	}
	if err := s.initKV(len(reqs)); err != nil {
		return nil, err
	}
	// The byte check above admits a static batch whole and initKV sizes the
	// store never to refuse it; sharing may still shorten prefill. A fresh
	// store holds nothing cold, so nothing stalls or transfers.
	var a admission
	for _, r := range reqs {
		rr, err := s.newRequest(r)
		if err != nil {
			return nil, err
		}
		if err := s.place(rr, &a); err != nil {
			return nil, err
		}
		if r.OutputLen > s.traceHint {
			s.traceHint = r.OutputLen
		}
	}

	// Prefill (§2.1): all input tokens processed at once. Compute-bound, so
	// it runs on the GPU where one exists; PIM-only designs pay for it on
	// their PIM units (§7.4).
	if a.prefill.Tokens > 0 {
		s.res.PrefillTime = e.runPrefill(a.prefill, &s.res)
	}
	s.clock = s.res.PrefillTime
	return s, nil
}

// NewStreamStepper builds a continuous-batching stepper over a request
// stream, pushing each request as Push would. The stream may be empty: a
// caller that owns the arrival process (internal/cluster) injects requests
// with Push as they reach this engine.
func (e *Engine) NewStreamStepper(reqs []workload.Request, maxBatch int) (*Stepper, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("serving: max batch %d must be positive", maxBatch)
	}
	s := &Stepper{
		eng:      e,
		res:      Result{System: e.Sys.Name, Model: e.Cfg.Name},
		maxBatch: maxBatch,
		horizon:  units.Seconds(math.Inf(1)),
	}
	if err := s.initKV(0); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if err := s.Push(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// initKV validates Options.KV and builds the block store when it enables
// sharing; without sharing the engine keeps the byte ledger and builds no
// store. A stream's hot tier is the attention pool's capacity in whole
// blocks — the real constraint block admission enforces. A static batch,
// whose admission must stay the whole-batch byte check, instead gets the
// byte capacity rounded up plus one block of partial-tail slack per request,
// so block bookkeeping can never refuse an admission the byte check granted.
// staticN is the batch size for a static stepper, 0 for a stream.
func (s *Stepper) initKV(staticN int) error {
	if s.eng.Opt.KV == nil {
		return nil
	}
	if err := s.eng.Opt.KV.Validate(); err != nil {
		return err
	}
	opt := s.eng.Opt.KV.Resolved()
	if !opt.Sharing {
		return nil
	}
	blockBytes := s.eng.Cfg.KVBytes(opt.BlockTokens)
	capBytes := s.eng.Sys.KVCapacity()
	hot := int(capBytes.Bytes() / blockBytes.Bytes())
	if staticN > 0 {
		hot = int(math.Ceil(capBytes.Bytes()/blockBytes.Bytes())) + staticN
	} else if hot < 1 {
		return fmt.Errorf("serving: attention pool %v holds no %d-token KV block (%v)",
			capBytes, opt.BlockTokens, blockBytes)
	}
	store, err := kv.NewStore(opt, hot, blockBytes)
	if err != nil {
		return err
	}
	s.kvStore = store
	return nil
}

// The tiers that index the per-tier counts.
const interactiveTier, batchTier = 0, 1

// tierOf returns the tier of class c: every class but batch is interactive.
func tierOf(c workload.Class) int {
	if c == workload.ClassBatch {
		return batchTier
	}
	return interactiveTier
}

// newRequest takes a request in, in a record from the free list when one is
// there (the record keeps its lease, and the lease its buffers). Its cached
// KV footprint, the worst-case byte demand it adds to the fleet signal,
// discounts the part of its declared prefix already resident in the block
// store at this instant: those tokens will be adopted, not recomputed, and
// counting them again would double-bill headroom when routing multi-turn chat.
func (s *Stepper) newRequest(r workload.Request) (*request, error) {
	if r.InputLen <= 0 || r.OutputLen <= 0 {
		return nil, fmt.Errorf("serving: request %d has non-positive lengths", r.ID)
	}
	if r.PrefixLen < 0 || r.PrefixLen > r.InputLen {
		return nil, fmt.Errorf("serving: request %d has prefix length %d outside [0, %d]", r.ID, r.PrefixLen, r.InputLen)
	}
	rr := s.free
	if rr != nil {
		s.free = rr.next
		*rr = request{lease: rr.lease}
	} else {
		rr = new(request)
	}
	rr.Request, rr.readyAt = r, r.Arrival
	rr.kvBytes = s.eng.Cfg.KVBytes(r.SeqLen())
	if s.kvStore != nil {
		if rr.lease == nil {
			rr.lease = new(kv.Lease)
		}
		s.kvStore.InitLease(rr.lease, r.PrefixGroup, int64(r.ID), r.PrefixLen, r.SeqLen(), r.Turn > 0)
		if r.PrefixGroup != 0 {
			if resident := s.kvStore.PlanAdmit(rr.lease, r.PrefixLen).SharedTokens; resident > 0 {
				rr.kvBytes -= s.eng.Cfg.KVBytes(resident)
			}
		}
	}
	s.seen++
	if !s.discarding() {
		s.all = append(s.all, rr)
	}
	s.kvDemandAll += rr.kvBytes
	return rr, nil
}

// enqueue queues a request, inserted into the pending queue by readyAt.
// Arrivals are pushed in time order in practice; insert stably so an
// out-of-order push (or an eviction requeue) cannot corrupt the queue.
func (s *Stepper) enqueue(rr *request) {
	if n := len(s.pending); n == cap(s.pending) {
		// The queue reached its buffer's end: move it to the front, of a
		// buffer twice its length when less than half of this one is free.
		if 2*n >= cap(s.queueBuf) {
			s.queueBuf = make([]*request, 2*n+1)
		}
		s.pending = s.queueBuf[:copy(s.queueBuf, s.pending)]
		clear(s.queueBuf[n:])
	}
	i := sort.Search(len(s.pending), func(i int) bool {
		return s.pending[i].readyAt > rr.readyAt
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = rr
	s.queued[tierOf(rr.Class)]++
	switch {
	case rr.Class != workload.ClassBatch:
		if i < s.intHint {
			s.intHint = i
		}
	case i <= s.intHint:
		// A batch insert at or below the bound grows the all-batch prefix.
		s.intHint++
	}
}

// dequeue takes pending[i] off the queue and returns it. It shifts the
// shorter side of i, so a head admission costs O(1) however deep the
// backlog; a slot freed in front stays in queueBuf for enqueue.
//
//papivet:noalloc
func (s *Stepper) dequeue(i int) *request {
	r := s.pending[i]
	if i < len(s.pending)/2 {
		copy(s.pending[1:i+1], s.pending[:i])
		s.pending[0] = nil
		s.pending = s.pending[1:]
	} else {
		s.pending = slices.Delete(s.pending, i, i+1)
	}
	if i < s.intHint {
		s.intHint--
	}
	s.queued[tierOf(r.Class)]--
	return r
}

// admission gathers one round of admissions: how many joined the batch, the
// prefill they need, and the block store's stalls and transfer energy.
type admission struct {
	admitted   int
	prefill    model.Prefill
	stall      units.Seconds
	xferEnergy units.Joules
}

// place makes r join the active batch: it adopts r's lease for its whole
// context under a block store, adds what r must prefill to a, and adds r to
// the batch's running totals.
func (s *Stepper) place(r *request, a *admission) error {
	ctx := r.contextLen()
	shared := 0
	if s.kvStore != nil {
		c, err := s.kvStore.Admit(r.lease, ctx)
		if err != nil {
			return err
		}
		shared = c.SharedTokens
		a.stall += c.StallTime
		a.xferEnergy += c.TransferEnergy
	}
	if in := ctx - shared; in > 0 {
		a.prefill.Add(&s.eng.Cfg, in)
	}
	s.notePrefill(r, ctx, shared)
	s.active = append(s.active, r)
	a.admitted++
	s.admitted[tierOf(r.Class)]++
	s.kvSum += ctx
	s.kvDemandActive += r.kvBytes
	return nil
}

// deactivate takes r's share out of the active batch's running totals; the
// caller removes r from active.
//
//papivet:noalloc
func (s *Stepper) deactivate(r *request) {
	s.admitted[tierOf(r.Class)]--
	s.kvSum -= r.contextLen()
	s.kvDemandActive -= r.kvBytes
}

// finish releases an active request that reached <|eos|>: its share of the
// running totals, and its lease (committed blocks stay resident for future
// prefix hits). The caller removes it from active.
func (s *Stepper) finish(r *request) {
	s.deactivate(r)
	s.kvDemandAll -= r.kvBytes
	if s.kvStore != nil {
		s.kvStore.Commit(r.lease)
	}
}

// notePrefill accounts one admission's prefill tokens: ctx tokens entered
// the engine, shared of them came from resident blocks. The re-prefill tax
// is the carried context — everything a preempted request regrew, or the
// declared shared prefix of a fresh one — that was prefilled rather than
// adopted.
func (s *Stepper) notePrefill(r *request, ctx, shared int) {
	s.res.PrefillTokens += ctx - shared
	carried := 0
	if r.preempted > 0 {
		carried = ctx
	} else if r.PrefixGroup != 0 {
		carried = min(r.PrefixLen, ctx)
	}
	if tax := carried - shared; tax > 0 {
		s.res.ReprefillTokens += tax
	}
}

// tiered reports whether both priority classes are outstanding — the regime
// in which admission is priority-aware: interactive jumps blocked batch
// traffic and may preempt it. Decode windows must then be bounded by the
// earliest class-boundary event instead of the queue head (see
// macroArrivalBound), so no interior iteration boundary can admit or evict a
// request the window bound does not see.
func (s *Stepper) tiered() bool {
	return s.queued[batchTier]+s.admitted[batchTier] > 0 &&
		s.queued[interactiveTier]+s.admitted[interactiveTier] > 0
}

// Push injects one more request into a stream stepper's pending queue. The
// cluster router calls this at the request's arrival instant. Callers that
// interleave Push with Step must bound Step with SetHorizon (see Step's
// contract).
func (s *Stepper) Push(r workload.Request) error {
	if s.static {
		return fmt.Errorf("serving: cannot push into a static batch stepper")
	}
	if s.failed {
		return fmt.Errorf("serving: cannot push request %d into a failed stepper", r.ID)
	}
	rr, err := s.newRequest(r)
	if err != nil {
		return err
	}
	s.enqueue(rr)
	return nil
}

// firstInteractive returns the index of the first interactive-class pending
// request (len(pending) when none), advancing the cached all-batch prefix
// bound as it skips.
//
//papivet:noalloc
func (s *Stepper) firstInteractive() int {
	i := s.intHint
	for i < len(s.pending) && s.pending[i].Class == workload.ClassBatch {
		i++
	}
	s.intHint = i
	return i
}

// Now reports the engine-local clock: prefill plus decode plus idle time
// elapsed so far.
func (s *Stepper) Now() units.Seconds { return s.clock }

// HasWork reports whether any request is live or waiting.
func (s *Stepper) HasWork() bool { return len(s.active) > 0 || len(s.pending) > 0 }

// Outstanding counts requests admitted-but-unfinished plus queued — the
// load signal the least-outstanding-requests router balances on.
func (s *Stepper) Outstanding() int { return len(s.active) + len(s.pending) }

// KVDemand returns the worst-case KV-cache footprint of every outstanding
// request (live and queued), the signal the KV-headroom router balances on,
// in O(1): it sits on the router hot path (called per replica per arrival).
//
//papivet:noalloc
func (s *Stepper) KVDemand() units.Bytes { return s.kvDemandAll }

// QuietUntil returns a lower bound on the start of the first decoding
// iteration that can finish a request. Until then Outstanding and KVDemand
// cannot change unless the caller pushes, cancels or fails work, so a
// caller that reads only those signals — the fleet driver routing on them —
// need not step the stepper before that instant. A request with r tokens
// left needs at least ⌈r/TLP⌉ more iterations, so the active batch finishes
// nothing before the clock plus one iteration floor per iteration the
// nearest finisher must first run. With a free slot the pending head also
// counts: it can be admitted at its ready instant, or now, and finish in its
// first iteration. A full batch admits and preempts nothing before a
// finish, so the rest of the queue never matters. A stepper with no work
// returns its clock: its next Step does nothing.
//
// A perturbation only stretches iterations, and a cancellation or a failure
// only removes work, so a pushless stepper's bound stays valid until its
// next Step; one that frees a slot may pull the bound in, so a caller that
// keys on it recomputes it after a Push, a Cancel or a Fail.
//
//papivet:noalloc
func (s *Stepper) QuietUntil() units.Seconds {
	if !s.HasWork() {
		return s.clock
	}
	q := units.Seconds(math.Inf(1))
	if len(s.active) > 0 {
		// ⌈r/TLP⌉ is monotone in r, so the nearest finisher owes the fewest
		// tokens.
		tlp := s.eng.Opt.TLP
		q = s.clock
		if k := float64((s.owed+tlp-1)/tlp - 1); k > 0 {
			// The clock gets there by k rounded additions of iterations no
			// shorter than the floor; each may round down by half an ulp of a
			// value no larger than end, and this bound's own two roundings
			// may round up by as much. Shaving 2⁻⁵⁰ of end + floor off every
			// iteration covers them all.
			f := s.iterationFloor()
			end := s.clock + f.Scale(k)
			if f -= (end + f).Scale(0x1p-50); f > 0 {
				q = s.clock + f.Scale(k)
			}
		}
	}
	if len(s.active) < s.maxBatch && len(s.pending) > 0 {
		q = min(q, max(s.pending[0].readyAt, s.clock))
	}
	return q
}

// iterationFloor is the shortest decoding iteration the stepper can run:
// the least, over every RLP up to the admission cap and every FC placement
// the design has, of the window's fixed terms plus the attention kernel's
// fixed overheads alone. The charging kernel sums the same terms in the same
// order, with an attention time no shorter, and rounded addition is
// monotone, so no iteration it charges is shorter; a perturbation only
// stretches. Priced lazily, from the engine's memo, on first use, from the
// largest RLP down, so each memo grows once.
func (s *Stepper) iterationFloor() units.Seconds {
	if s.floorSet {
		return s.floor
	}
	e := s.eng
	attn := e.Sys.AttnPIM.KernelOverhead + e.attnOvh
	floor := units.Seconds(math.Inf(1))
	var p windowPrice
	for rlp := s.maxBatch; rlp >= 1; rlp-- {
		for _, onPU := range [...]bool{true, false} {
			if onPU && !e.Sys.HasGPU() || !onPU && e.Sys.FCPIM == nil {
				continue
			}
			e.priceWindow(&p, rlp, onPU)
			floor = min(floor, p.fcTime+attn+p.commTime+p.otherTime)
		}
	}
	s.floor, s.floorSet = floor, true
	return floor
}

// SetHorizon bounds decode windows: a Step call stops running iterations
// once its clock reaches t, so a caller interleaving many steppers on one
// event timeline (internal/cluster) can guarantee no other event — an
// arrival, a closed-loop follow-up — should have been observed first. A
// horizon at or before the clock still lets Step run one iteration, so
// SetHorizon(Now()) before every Step drives the stepper one iteration at a
// time. The bound is sticky; steppers start with +Inf (they own their whole
// timeline).
func (s *Stepper) SetHorizon(t units.Seconds) { s.horizon = t }

// StartAt moves a fresh stream stepper's clock to t without accruing idle
// time — the boot instant of a replica provisioned mid-run by the cluster
// autoscaler, whose busy/idle accounting (and therefore host energy) must
// start at boot rather than at the fleet's time zero. It is only valid on a
// stream stepper that has seen no work: no requests, no iterations, no clock
// movement.
func (s *Stepper) StartAt(t units.Seconds) error {
	if s.static {
		return fmt.Errorf("serving: cannot StartAt a static batch stepper")
	}
	if s.seen > 0 || s.res.Iterations > 0 || s.clock != 0 || s.res.IdleTime != 0 {
		return fmt.Errorf("serving: StartAt on a stepper that already has history")
	}
	if t < 0 {
		return fmt.Errorf("serving: StartAt instant %v is negative", t)
	}
	s.clock = t
	return nil
}

// discarding reports whether completed-request records are dropped rather
// than retained for Finalize (see Options.DiscardCompleted). Static batch
// steppers always retain: RunBatch's contract is the full Result.
func (s *Stepper) discarding() bool { return s.eng.Opt.DiscardCompleted && !s.static }

// AdvanceTo moves an idle stepper's clock forward to t, accounting the gap
// as idle time. It is a no-op when t is not ahead of the clock or when live
// requests still occupy the engine (a busy engine's clock only advances by
// running iterations).
func (s *Stepper) AdvanceTo(t units.Seconds) {
	if t <= s.clock || len(s.active) > 0 {
		return
	}
	s.res.IdleTime += t - s.clock
	s.clock = t
}

// admit moves pending requests whose ready instant has passed into the
// active batch, bounded by the admission cap and the attention pool's KV
// capacity, and charges their prefill (piggybacked onto the token timeline).
//
// Admission is priority-aware. Interactive requests are admitted first, in
// ready order, skipping over blocked batch traffic; an interactive candidate
// that does not fit the KV pool may preempt active batch requests
// (evict-and-requeue, see preemptFor) instead of waiting for a completion.
// Batch requests are admitted strictly from the queue head, and only while
// no admissible interactive request is blocked ahead of them — batch
// traffic must not grab the capacity an interactive request is waiting for.
// With a single class outstanding both phases reduce to the classic FIFO
// head-of-line admission.
func (s *Stepper) admit() error {
	var a admission

	// Phase one: interactive admission (skipped when none is pending). The
	// first interactive candidate that cannot be placed — even with
	// preemption — blocks the rest of its class (FIFO fairness within the
	// tier) and bars batch admission below.
	interactiveBlocked := false
	if s.queued[interactiveTier] > 0 {
		// The queue is readyAt-ordered, so every request past a not-yet-ready
		// one is not ready either: breaking at the first unready interactive
		// admits exactly what a front-to-back scan would, and firstInteractive
		// skips the batch backlog in amortized O(1) instead of re-walking it.
		for len(s.active) < s.maxBatch {
			i := s.firstInteractive()
			if i == len(s.pending) {
				break
			}
			cand := s.pending[i]
			if cand.readyAt > s.clock {
				break
			}
			// A preemption requeues its victims behind the ready cand, so
			// pending[i] is still cand.
			if !s.kvFits(cand) && !s.preemptFor(cand, &a) {
				interactiveBlocked = true
				break
			}
			if err := s.place(s.dequeue(i), &a); err != nil {
				return err
			}
		}
	}

	// Phase two: batch admission from the literal queue head.
	if !interactiveBlocked {
		for len(s.pending) > 0 && len(s.active) < s.maxBatch {
			cand := s.pending[0]
			if cand.Class != workload.ClassBatch || cand.readyAt > s.clock || !s.kvFits(cand) {
				break
			}
			if err := s.place(s.dequeue(0), &a); err != nil {
				return err
			}
		}
	}

	if a.admitted == 0 {
		return nil
	}
	// A fully shared admission (nothing to prefill) still pays its demand
	// transfers: promotion rides the prefill phase of the timeline, like
	// prefill itself. Demotion write-backs charge energy only — idle state
	// drains over the host link while the stacks keep computing.
	var pt units.Seconds
	if a.prefill.Tokens > 0 {
		pt = s.eng.runPrefill(a.prefill, &s.res)
		// A straggling replica prefills slower too; brownout (Attn) is a
		// decode-side attention-fabric effect and leaves prefill alone.
		if f := s.perturb.Slow; s.perturbed && f > 1 {
			pt += pt.Scale(f - 1)
		}
	}
	pt += a.stall
	s.res.PrefillTime += pt
	s.clock += pt
	if a.xferEnergy > 0 {
		s.res.Energy.Add(energy.Interconnect, a.xferEnergy)
	}
	return nil
}

// kvFits reports whether cand can be admitted right now under the KV
// regime in force: block commitments with a store (every block the
// admission would commit — adopted, promoted, fresh, plus growth reserve —
// must fit the hot tier next to the blocks already committed), the byte
// ledger otherwise, where cand.kvBytes is exactly Cfg.KVBytes(cand.SeqLen()).
func (s *Stepper) kvFits(cand *request) bool {
	if s.kvStore != nil {
		return s.kvStore.CanAdmit(s.kvStore.PlanAdmit(cand.lease, cand.contextLen()))
	}
	return s.kvDemandActive+cand.kvBytes <= s.eng.Sys.KVCapacity()
}

// preemptFor makes KV room for an interactive candidate by evicting
// batch-class requests from the active set, most recent admission first. An
// evicted request re-enters the pending queue ready immediately. What
// eviction costs depends on the KV regime: under the byte ledger the
// victim's cache is simply gone, and its eventual re-admission re-prefills
// the full grown context (prompt plus every token already generated) — the
// paper-world cost of preemption. Under block sharing the victim's lease is
// parked instead: sealed blocks are demoted to the cold tier (write-back
// energy accumulated into a; the drain overlaps compute, so its stall only
// grows by demand stalls), and re-admission promotes them back rather than
// recomputing, so only what eviction pressure dropped from cold is ever
// re-prefilled.
//
// Eviction is all-or-nothing: when even evicting every active batch request
// could not make room — judged conservatively under sharing, assuming none
// of the candidate's blocks are adoptable — nothing is evicted. Reports
// whether the candidate now fits.
func (s *Stepper) preemptFor(cand *request, a *admission) bool {
	if s.kvStore != nil {
		b := s.kvStore.BlockTokens()
		worst := (cand.SeqLen() + b - 1) / b
		gain := 0
		for _, r := range s.active {
			if r.Class == workload.ClassBatch {
				gain += s.kvStore.ParkGain(r.lease)
			}
		}
		if s.kvStore.CommittedBlocks()-gain+worst > s.kvStore.HotBlocks() {
			return false
		}
	} else if !s.preemptFeasible(cand) {
		return false
	}
	for i := len(s.active) - 1; i >= 0 && !s.kvFits(cand); i-- {
		r := s.active[i]
		if r.Class != workload.ClassBatch {
			continue
		}
		if s.kvStore != nil {
			c := s.kvStore.Park(r.lease)
			a.stall += c.StallTime
			a.xferEnergy += c.TransferEnergy
		}
		s.active = slices.Delete(s.active, i, i+1)
		s.deactivate(r)
		r.readyAt = s.clock
		r.preempted++
		s.enqueue(r)
		s.res.Preemptions++
	}
	return s.kvFits(cand)
}

// Step advances the engine by one unit of progress: admit any arrived
// requests, then either run a window of decoding iterations (decide →
// iterate → commit, see window) or jump the clock to the next arrival if
// nothing is runnable; a stepper without work (see HasWork) is left as it
// is. It returns the requests that reached <|eos|> in the window, in active
// order, each with its latency record — the hook closed-loop arrival owners
// (multi-turn conversations in internal/cluster) use to couple a follow-up
// Push to a completion, and the only place a discarding stepper (see
// Options.DiscardCompleted) hands a record out. The slice is the stepper's
// own buffer, valid until its next Step.
//
// One Step may run a whole window of iterations; the stepper accounts for
// every arrival already in its pending queue, so RunBatch/RunContinuous-style
// drivers are unaffected. A caller that instead injects arrivals
// incrementally with Push between Step calls must bound each call with
// SetHorizon(t), t being the earliest instant it might push; otherwise a
// window can overshoot the instant the caller meant to inject at, admitting
// the request later than single-stepping would. internal/cluster does
// exactly this: each replica's horizon is the fleet driver's next barrier.
func (s *Stepper) Step() ([]Completion, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	if len(s.active) == 0 {
		if len(s.pending) == 0 {
			return nil, nil
		}
		gap := s.pending[0].readyAt - s.clock
		if gap <= 0 {
			// A request has arrived but could not be admitted with an empty
			// batch: some arrived request's KV cache alone exceeds the pool
			// (with priority tiers that may be an interactive request behind
			// the queue head, whose block also bars batch admission). Under
			// block sharing "alone" means its whole-sequence block count
			// against an empty hot tier.
			blocked := s.pending[0]
			for _, r := range s.pending {
				if r.readyAt > s.clock {
					break
				}
				if s.kvStore != nil {
					if !s.kvStore.FitsAlone(r.SeqLen()) {
						blocked = r
						break
					}
				} else if s.eng.Cfg.KVBytes(r.SeqLen()) > s.eng.Sys.KVCapacity() {
					blocked = r
					break
				}
			}
			return nil, fmt.Errorf("serving: request %d KV footprint exceeds attention pool capacity",
				blocked.ID)
		}
		s.res.IdleTime += gap
		s.clock = s.pending[0].readyAt
		return nil, nil
	}

	// A window fast-forwards a whole run of identical-RLP iterations, bounded
	// by macroArrivalBound: the earliest instant an admission or preemption
	// could change the active batch — queue-head arrival for a single class,
	// the earliest class-boundary event for tiered streams, the clock itself
	// (a one-iteration window) in the one regime with no sound bound. A
	// perturbed window prices its stretch per iteration, and the caller
	// fences perturbation changes with SetHorizon (see SetPerturbation).
	return s.window(s.macroArrivalBound())
}

// window runs decoding iterations at the current RLP inside one Step call.
// It ends at the first finish (the iterations after it run at a smaller
// RLP), once the clock reaches the admission bound, and at the horizon; it
// always runs at least one iteration. RLP and TLP are frozen inside a
// window, so the policy places its FC phase once, from RLP×TLP (§5.2.2
// steps 3–4), and a window placed unlike the one before it counts as a
// reschedule. Every trace entry, energy charge and clock value is
// bit-identical to running the window's iterations one Step at a time, and
// to the caller — the cluster driver above all — the window is one event.
//
// One loop commits both regimes: each pass charges n iterations, then
// commits every live request's tokens in active order and counts <|eos|>
// (§5.2.2 steps 1–2). With TLP = 1 every request commits one deterministic
// token per iteration, so n is the window's limit and the first pass ends
// the window. With speculation (TLP > 1) commits are stochastic: n is 1,
// and every pass replays the per-request acceptance draws in active order,
// because the RNG draw order is part of the bit-identical contract.
func (s *Stepper) window(bound units.Seconds) ([]Completion, error) {
	rlp, tlp := len(s.active), s.eng.Opt.TLP
	// Every iteration commits at least one token per live request, so no
	// window runs longer than the fewest tokens any of them still owes; with
	// TLP = 1 it commits exactly one, and that is where the window ends.
	limit := math.MaxInt
	for _, r := range s.active {
		limit = min(limit, r.OutputLen-r.generated)
	}
	place := s.eng.Sys.Policy.PlaceFC(rlp, tlp)
	if s.res.Iterations > 0 && place != s.lastPlace {
		s.res.Reschedules++
	}
	s.lastPlace = place
	var p windowPrice
	s.eng.priceWindow(&p, rlp, place == sched.PlacePU && s.eng.Sys.HasGPU())
	s.reserveTraces(limit)
	n, grow := 1, 0
	if tlp == 1 {
		n, grow = limit, rlp
	}
	s.completed = s.completed[:0]
	for {
		traced := len(s.res.IterStats) < cap(s.res.IterStats)
		run, first := s.charge(&p, rlp, grow, place, bound, n)
		// Lease growth replays the per-iteration allocator schedule in two
		// phases. Interior iterations free nothing, so their per-lease block
		// allocations all draw on the same monotonically shrinking hot tier
		// — any order pops the same idle blocks, and one bulk Extend per
		// lease to the penultimate context reproduces the state exactly. The
		// final iteration interleaves each lease's growth with finished
		// leases' Commits, whose freed blocks are allocatable to the leases
		// after them, so it is replayed in active order below.
		if s.kvStore != nil && run > 1 {
			for _, r := range s.active {
				if err := s.kvStore.Extend(r.lease, r.contextLen()+run-1); err != nil {
					return nil, err
				}
			}
		}
		tokens := 0
		for _, r := range s.active {
			committed := run
			if tlp > 1 {
				committed = min(s.eng.accepted(), r.OutputLen-r.generated)
			}
			epoch := r.Arrival
			if s.static {
				epoch = 0
			}
			r.iterations += run
			r.observe(committed, first, s.clock, epoch)
			tokens += committed
			if s.kvStore != nil {
				if err := s.kvStore.Extend(r.lease, r.contextLen()); err != nil {
					return nil, err
				}
			}
			if r.generated >= r.OutputLen {
				s.completed = append(s.completed, Completion{Request: r.Request, Metrics: r.metrics()})
				s.finish(r)
			}
		}
		s.res.Tokens += tokens
		if tlp > 1 {
			// The kernel charged the iteration before its draws: ΣkvLen and
			// the iteration's trace entry take its commits now.
			s.kvSum += tokens
			if traced {
				s.res.IterStats[len(s.res.IterStats)-1].Tokens = tokens
			}
		}
		if len(s.completed) > 0 || bound <= s.clock || s.clock >= s.horizon {
			break
		}
	}
	// Drop finished requests from the active set to release KV capacity.
	if len(s.completed) > 0 {
		s.active = s.live(s.active)
	}
	s.owed = math.MaxInt
	for _, r := range s.active {
		s.owed = min(s.owed, r.OutputLen-r.generated)
	}
	return s.completed, nil
}

// charge is the decode window's charging kernel: it runs up to n decoding
// iterations of the window priced in p, stopping early once the clock
// reaches bound or the horizon, and returns how many ran and the clock at
// the end of the first. Each iteration charges, in
// order (per layer, serialised: FC(QKV) → link to Attn-PIM → attention →
// link back → FC(projection+FFN), with all-layer work aggregated into closed
// forms since layers are identical):
//
//   - the FC phase on its pool, with the PU-fabric hop for FC-PIM;
//   - the attention kernel at the current ΣkvLen and its fabric traffic;
//   - drafting, sampling/gather and the policy's decision latency;
//   - idle and standby energy for every pool outside its busy window;
//   - the fault injector's perturbation: the attention and communication
//     terms scale by Attn, then the whole stretched iteration by Slow, with
//     the straggler surcharge booked under Other (node slowness, not a
//     kernel) and charging time only — host energy grows with the longer
//     makespan.
//
// The running totals — every energy slot, DecodeTime, the four breakdown
// terms, the clock and ΣkvLen, which grows by grow tokens per iteration —
// live in locals and are stored back once: the float operations and their
// per-total order are exactly those of charging the Result directly, so
// every bit is unchanged. Trace entries are recorded only into the room
// reserveTraces made — none in the constant-memory mode, and never past
// traceCap — under the FC placement place and indexed by Result.Iterations;
// their Tokens is grow.
//
//papivet:noalloc
func (s *Stepper) charge(p *windowPrice, rlp, grow int, place sched.Placement, bound units.Seconds, n int) (run int, first units.Seconds) {
	e, res := s.eng, &s.res
	hasGPU, hasFCPIM, spec := e.Sys.HasGPU(), e.Sys.FCPIM != nil, e.Opt.TLP > 1
	static, perturbed, horizon, prefill := s.static, s.perturbed, s.horizon, res.PrefillTime
	slowF, attnF := s.perturb.Slow, s.perturb.Attn
	fcTime, commTime, otherTime := p.fcTime, p.commTime, p.otherTime

	decode := res.DecodeTime
	bFC, bAttn, bComm, bOther := res.Breakdown.FC, res.Breakdown.Attention, res.Breakdown.Communication, res.Breakdown.Other
	gpuActive := res.Energy.Get(energy.GPUActive)
	gpuIdle := res.Energy.Get(energy.GPUIdle)
	fcPIM := res.Energy.Get(energy.FCPIM)
	attnPIM := res.Energy.Get(energy.AttnPIM)
	link := res.Energy.Get(energy.Interconnect)
	gpuIdled, fcIdled := false, false
	throttled := res.Throttled
	clock, kvSum := s.clock, s.kvSum
	rlpTrace, iterStats := res.RLPTrace, res.IterStats
	for {
		aTime, aEnergy, aThrottled := e.attnAt(p, kvSum)
		var gpuBusy units.Seconds
		if p.onPU {
			gpuBusy = fcTime
			gpuActive = energy.Charge(gpuActive, p.fcEnergy)
		} else {
			throttled = throttled || p.fcThrottled
			fcPIM = energy.Charge(fcPIM, p.fcEnergy)
			link = energy.Charge(link, p.fcLink)
		}
		throttled = throttled || aThrottled
		attnPIM = energy.Charge(attnPIM, aEnergy)
		link = energy.Charge(link, p.commEnergy)
		if spec {
			if p.draftOnGPU {
				gpuActive = energy.Charge(gpuActive, p.draftEnergy)
			} else {
				fcPIM = energy.Charge(fcPIM, p.draftEnergy)
			}
		}
		t := fcTime + aTime + commTime + otherTime
		if hasGPU {
			if idle := t - gpuBusy; idle > 0 {
				gpuIdle = energy.Charge(gpuIdle, e.gpuIdleW.Energy(idle))
				gpuIdled = true
			}
		}
		if hasFCPIM {
			if idle := t - fcTime; idle > 0 {
				fcPIM = energy.Charge(fcPIM, e.fcStandbyW.Energy(idle))
				fcIdled = true
			}
		}
		if idle := t - aTime; idle > 0 {
			attnPIM = energy.Charge(attnPIM, e.attnStandbyW.Energy(idle))
		}
		preAttn, preComm := bAttn, bComm
		decode += t
		bFC += fcTime
		bAttn += aTime
		bComm += commTime
		bOther += otherTime
		if perturbed {
			var extra units.Seconds
			if attnF > 1 {
				ea := (bAttn - preAttn).Scale(attnF - 1)
				ec := (bComm - preComm).Scale(attnF - 1)
				bAttn += ea
				bComm += ec
				extra += ea + ec
			}
			if slowF > 1 {
				es := (t + extra).Scale(slowF - 1)
				bOther += es
				extra += es
			}
			t += extra
			decode += extra
		}
		run++
		if i := len(rlpTrace); i < cap(rlpTrace) {
			rlpTrace = rlpTrace[:i+1]
			rlpTrace[i] = rlp
		}
		if static {
			// Recompute rather than accumulate so the clock matches the
			// summed phase times bit-for-bit.
			clock = prefill + decode
		} else {
			clock += t
		}
		if run == 1 {
			first = clock
		}
		kvSum += grow
		if i := len(iterStats); i < cap(iterStats) {
			iterStats = iterStats[:i+1]
			iterStats[i] = IterationStat{Index: res.Iterations + run - 1, RLP: rlp, TLP: e.Opt.TLP,
				Placement: place, Time: t, Tokens: grow}
		}
		if run == n || bound <= clock || clock >= horizon {
			break
		}
	}

	res.Iterations += run
	res.DecodeTime = decode
	res.Breakdown.FC, res.Breakdown.Attention = bFC, bAttn
	res.Breakdown.Communication, res.Breakdown.Other = bComm, bOther
	if p.onPU || spec && p.draftOnGPU {
		res.Energy.Set(energy.GPUActive, gpuActive)
	}
	if gpuIdled {
		res.Energy.Set(energy.GPUIdle, gpuIdle)
	}
	if !p.onPU || spec && !p.draftOnGPU || fcIdled {
		res.Energy.Set(energy.FCPIM, fcPIM)
	}
	res.Energy.Set(energy.AttnPIM, attnPIM)
	res.Energy.Set(energy.Interconnect, link)
	res.Throttled = throttled
	s.clock, s.kvSum = clock, kvSum
	res.RLPTrace, res.IterStats = rlpTrace, iterStats
	return run, first
}

// reserveTraces makes room in the per-iteration traces — the decode loop's
// only growing allocations — for n more entries, up to traceCap, so the
// charging kernel records them without growing a slice: it records exactly
// while a trace has room, and a window runs at most n iterations. The first
// call sizes them from traceHint, lazily, so runs that never iterate keep
// nil traces; capacity is invisible in the Result, so Results stay
// deep-equal however their iterations were split into windows. A discarding
// stepper (Options.DiscardCompleted) makes no room and so records no trace;
// its caller, the fleet, reads none.
func (s *Stepper) reserveTraces(n int) {
	if s.discarding() {
		return
	}
	if s.res.RLPTrace == nil {
		hint := s.traceHint
		if hint == 0 {
			// Stream mode: run length is unknowable up front. 2048 entries
			// (~110 KiB) covers typical continuous-batching cells in one
			// allocation; worst case one doubling reaches the cap.
			hint = 2048
		}
		hint = min(hint, traceCap)
		s.res.RLPTrace = make([]int, 0, hint)
		s.res.IterStats = make([]IterationStat, 0, hint)
	}
	n = min(n, traceCap)
	s.res.RLPTrace = growTrace(s.res.RLPTrace, n)
	s.res.IterStats = growTrace(s.res.IterStats, n)
}

// growTrace returns t with room for n more entries, up to traceCap: grown
// by at least half, never past the cap, so a trace that fills reaches it in
// two copies from the stream hint and holds no slack beyond it.
func growTrace[T any](t []T, n int) []T {
	need := min(len(t)+n, traceCap)
	if need <= cap(t) {
		return t
	}
	grown := make([]T, len(t), min(max(cap(t)+cap(t)/2, need), traceCap))
	copy(grown, t)
	return grown
}

// macroArrivalBound computes the macro window's admission bound: the
// earliest instant at which an admission or preemption could change the
// active batch, +Inf when only a finish can (finishes already end every
// window). Ending a window early is always safe — the next Step re-runs
// admit for real — so every bound here may be conservative; the invariant
// is only that the window never fast-forwards past an iteration boundary
// at which one-iteration stepping would have admitted or evicted. Where no
// sound bound exists the bound is the clock itself, which ends the window
// after one iteration.
//
// Single-class streams keep PR 3's head-of-line rule: the window pauses
// once the queue head is admissible (from its arrival onward every
// iteration boundary would admit it), while a capacity-blocked head waits
// for a finish. Tiered streams bound on the earliest class-boundary event
// instead, using the O(1) class counters and KV-demand totals. The interior
// of a window is frozen — no admissions, evictions or finishes — so under
// the byte ledger every admissibility verdict below is time-invariant
// until the window ends: a blocked request stays blocked, an infeasible
// preemption stays infeasible. Under block sharing that argument fails for
// tiered streams (interior lease growth moves CommittedBlocks and
// ParkGain, so a preemption trigger can arm mid-window) — that is the one
// regime bounded by the clock.
//
//papivet:noalloc
func (s *Stepper) macroArrivalBound() units.Seconds {
	inf := units.Seconds(math.Inf(1))
	// A stream with an empty queue — a static batch's always is — has
	// nothing to admit before the horizon (Push is fenced by SetHorizon).
	if len(s.pending) == 0 {
		return inf
	}
	if !s.tiered() {
		head := s.pending[0]
		if len(s.active) < s.maxBatch && s.kvFits(head) {
			return head.readyAt
		}
		return inf
	}
	if s.kvStore != nil {
		return s.clock
	}
	// Tiered, byte ledger. With the batch full, neither admission phase nor
	// preemption (which only runs while placing an interactive into a free
	// slot) can act before a finish.
	if len(s.active) >= s.maxBatch {
		return inf
	}
	// An admissible batch head bounds the window at its arrival (which may
	// already have passed — admit's prefill can advance the clock over it;
	// the window then closes after one iteration and the next Step admits
	// it, or discovers a blocked interactive barring it). A KV-blocked
	// batch head admits nothing — phase-two admission is literal-head-only,
	// and the head cannot change inside a window — but an interactive
	// behind it still can, so keep looking.
	if head := s.pending[0]; head.Class == workload.ClassBatch && s.kvFits(head) {
		return head.readyAt
	}
	// The earliest pending interactive decides the rest: the queue is
	// readyAt-ordered and phase-one admission is FIFO within the tier, so
	// if this one cannot be placed — even by preempting every active batch
	// request — it blocks its whole class and bars batch admission from its
	// arrival until a finish. If it can be placed, its arrival is the
	// boundary.
	if s.queued[interactiveTier] > 0 {
		if i := s.firstInteractive(); i < len(s.pending) {
			r := s.pending[i]
			if s.kvFits(r) || s.preemptFeasible(r) {
				return r.readyAt
			}
			return inf
		}
	}
	return inf
}

// preemptFeasible reports whether evicting every active batch-class request
// would make byte-ledger KV room for cand — preemptFor's all-or-nothing
// feasibility test, split out so the macro window bound can ask it without
// evicting. Callers in the block-sharing regime must use preemptFor itself.
//
//papivet:noalloc
func (s *Stepper) preemptFeasible(cand *request) bool {
	var evictable units.Bytes
	for _, r := range s.active {
		if r.Class == workload.ClassBatch {
			evictable += r.kvBytes
		}
	}
	return s.kvDemandActive-evictable+cand.kvBytes <= s.eng.Sys.KVCapacity()
}

// Finalize closes the run and returns the accumulated Result, adding the
// latency record of every retained request that committed a token, in input
// order, and host-CPU energy over the makespan. A surrendered request (see
// Fail and Cancel) committed nothing that survives, so it has no record; its
// retry, pushed here again, has its own. Further Finalize calls return the
// same Result.
func (s *Stepper) Finalize() Result {
	if s.finalized {
		return s.res
	}
	s.finalized = true
	s.res.Requests = make([]RequestMetrics, 0, len(s.all))
	for _, r := range s.all {
		if r.generated > 0 {
			s.res.Requests = append(s.res.Requests, r.metrics())
		}
	}
	if s.static {
		s.res.PerRequestIterations = make([]int, len(s.all))
		for i, r := range s.all {
			s.res.PerRequestIterations[i] = r.iterations
		}
	}
	// Host CPU draws power for the whole run.
	s.res.Energy.Add(energy.HostCPU, s.eng.Sys.HostPower.Energy(s.res.TotalTime()))
	// Block-cache counters are part of the Result only when sharing was live,
	// so sharing-off Results stay deep-equal to KV = nil ones.
	if s.kvStore != nil {
		st := s.kvStore.Stats()
		s.res.KV = &st
	}
	return s.res
}

// run drives a stepper to completion — the shared tail of RunBatch and
// RunContinuous.
func (s *Stepper) run() (Result, error) {
	for s.HasWork() {
		if _, err := s.Step(); err != nil {
			return Result{}, err
		}
	}
	return s.Finalize(), nil
}
