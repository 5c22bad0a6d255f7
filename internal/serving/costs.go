package serving

import (
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/units"
)

// fcCost is one memoized FC-phase pricing: the full phase time (kernel
// execution, per-layer launch overheads and — for the FC-PIM placement —
// the activation hops across the PU fabric) plus the energy to charge per
// iteration. Pricing is a pure function of the token count n, the system and
// the model, so caching it is exact.
type fcCost struct {
	valid bool
	// time is the FC phase's critical-path contribution.
	time units.Seconds
	// energy is the executing pool's draw (GPUActive or FCPIM).
	energy units.Joules
	// linkEnergy is the PU-fabric transfer energy (FC-PIM placement only).
	linkEnergy units.Joules
	// throttled reports whether the PIM power governor stretched execution.
	throttled bool
}

// draftPrice is the memoized draft-model invocation: one unbatched FC
// iteration of the draft model on whichever pool runs it. The visible
// (overlap-discounted) time is derived per call — it depends only on this
// plus the engine's TLP and draftOverlap.
type draftPrice struct {
	valid  bool
	per    units.Seconds
	energy units.Joules
	onGPU  bool
}

// memoFC returns a pointer to slot n of an engine's fcCost memo, growing
// the slice and filling the slot from miss on first demand. The pointer is
// valid only until the memo next grows, so callers copy the fields they need
// at once; reading them through the slot also spares the wide struct copy a
// by-value return makes (see priceWindow). The memo belongs to one engine
// and is read and written only by the goroutine stepping it, so it needs no
// lock; a fresh pricing costs well under a microsecond, so each engine
// pricing its own (placement, n) kernels once is cheaper than sharing a
// locked table across engines.
func memoFC(costs *[]fcCost, n int, miss func(int) fcCost) *fcCost {
	if n < len(*costs) && (*costs)[n].valid {
		return &(*costs)[n]
	}
	c := miss(n)
	if n >= len(*costs) {
		grown := make([]fcCost, n+1+n/2)
		copy(grown, *costs)
		*costs = grown
	}
	(*costs)[n] = c
	return &(*costs)[n]
}

// Pricing primitives ---------------------------------------------------------
//
// These compute the FC-phase and draft costs from scratch. The decode loop
// never calls them directly: it serves their results from the engine's
// memo, filling a slot on first demand, and purity makes a memoized price
// bit-identical to a fresh one.

// fcPricePU prices the FC phase of one decoding iteration with n tokens in
// flight on the GPU pool: one roofline execution plus the remaining launch
// latencies (three FC kernel launches per layer; Execute charged one).
func (e *Engine) fcPricePU(n int) fcCost {
	fcK := e.Cfg.FCIterationKernel(n)
	layers := float64(e.Cfg.Layers)
	g := e.Sys.GPU.Execute(fcK.Flops, fcK.WeightBytes+fcK.ActivationBytes)
	return fcCost{
		valid:  true,
		time:   g.Time + e.Sys.GPU.Spec.LaunchLatency.Scale(3*layers-1),
		energy: g.Energy,
	}
}

// fcPricePIM prices the FC phase on the FC-PIM pool: kernel execution, the
// remaining per-layer kernel overheads, and the activation traffic crossing
// the PU fabric to reach the FC-PIM stacks.
func (e *Engine) fcPricePIM(n int) fcCost {
	fcK := e.Cfg.FCIterationKernel(n)
	layers := float64(e.Cfg.Layers)
	p := e.Sys.FCPIM.Execute(pim.Kernel{Name: "fc", Class: pim.ClassFC, Flops: fcK.Flops, UniqueBytes: fcK.WeightBytes}, 0)
	c := fcCost{
		valid:     true,
		time:      p.Time + e.Sys.FCPIM.KernelOverhead.Scale(3*layers-1),
		energy:    p.Energy.Total(),
		throttled: p.Throttled,
	}
	tr := e.Sys.PULink.Send(units.Bytes(fcK.ActivationBytes.Bytes() / layers))
	c.time += tr.Time.Scale(layers)
	c.linkEnergy = tr.Energy.Scale(layers)
	return c
}

// draftOverlap is the fraction of draft-model time hidden under the previous
// iteration's verification (pipelined drafting).
const draftOverlap = 0.75

// draftPriceFresh prices one draft-model FC iteration (§2.2.2) on whichever
// pool runs it. The paper does not name its draft model, so every target
// drafts with OPT-125M, which keeps results comparable across models.
func (e *Engine) draftPriceFresh() draftPrice {
	k := model.OPT125M().FCIterationKernel(1)
	if e.Sys.HasGPU() {
		g := e.Sys.GPU.Execute(k.Flops, k.WeightBytes)
		return draftPrice{valid: true, per: g.Time, energy: g.Energy, onGPU: true}
	}
	p := e.Sys.FCPIM.Execute(pim.Kernel{Name: "draft", Class: pim.ClassFC, Flops: k.Flops, UniqueBytes: k.WeightBytes}, 0)
	return draftPrice{valid: true, per: p.Time, energy: p.Energy.Total()}
}

// fcCostPU returns the (memoized) GPU FC pricing for n.
func (e *Engine) fcCostPU(n int) *fcCost {
	return memoFC(&e.puCache, n, e.fcPricePU)
}

// fcCostPIM returns the (memoized) FC-PIM pricing for n.
func (e *Engine) fcCostPIM(n int) *fcCost {
	return memoFC(&e.pimCache, n, e.fcPricePIM)
}

// draftMemoized returns the (memoized) draft-model pricing.
func (e *Engine) draftMemoized() draftPrice {
	if !e.draftCache.valid {
		e.draftCache = e.draftPriceFresh()
	}
	return e.draftCache
}

// windowPrice is a decode window's pricing: every term RLP, TLP and the FC
// placement fix, priced once per window by priceWindow, plus the attention
// roofline for the window's device count, which attnAt completes per
// iteration from ΣkvLen, the one input that moves inside a window. Every
// input is memoized or closed-form: the FC and draft kernels come from the
// engine's memo, and the attention kernel is model.AttentionKernel's closed
// form in ΣkvLen (the kernel depends on the KV lengths only through their
// sum) against the engine-hoisted coefficients, priced on one PIM device per
// head per request (up to the pool), plus, per layer, the Q/K/V vectors to
// the attention devices and the context back (§6.3's byte-level traffic).
// The result is bit-identical to re-deriving every kernel from the
// per-request KV lengths on every iteration — memoized pricing is pure, and
// the folded coefficients and every per-request term are integer-valued
// floats far below 2⁵³ — which the pricing property tests pin per design,
// model, TLP and placement, over windows of several iterations.
type windowPrice struct {
	// onPU reports that the FC phase runs on the GPU pool, not on FC-PIM.
	onPU bool
	// The FC phase: its critical-path time, the executing pool's energy,
	// the PU-fabric transfer energy (FC-PIM placement only) and whether the
	// PIM power governor stretched it.
	fcTime      units.Seconds
	fcEnergy    units.Joules
	fcLink      units.Joules
	fcThrottled bool
	// attn prices the attention kernel on the window's devices; commTime and
	// commEnergy are its per-iteration attention-fabric traffic.
	attn       pim.Pricer
	commTime   units.Seconds
	commEnergy units.Joules
	// otherTime is the fixed per-iteration overhead plus, with speculation,
	// the visible draft time; draftEnergy is charged to the GPU pool when
	// draftOnGPU, else to FC-PIM.
	otherTime   units.Seconds
	draftEnergy units.Joules
	draftOnGPU  bool
}

// priceWindow fills p for a window at rlp active requests with the FC phase
// on the GPU pool (onPU) or on the FC-PIM pool. It writes through a pointer,
// field by field, rather than return a struct: a struct result or composite
// literal makes the compiler assemble the struct in a stack temporary and
// copy it with wide loads that cannot be forwarded from the narrow field
// stores, a stall that cost the fleet benchmarks 5–10 % of their CPU time on
// a 2-vCPU x86-64 VM.
//
//papivet:noalloc
func (e *Engine) priceWindow(p *windowPrice, rlp int, onPU bool) {
	var fc *fcCost
	if n := rlp * e.Opt.TLP; onPU {
		fc = e.fcCostPU(n)
	} else {
		fc = e.fcCostPIM(n)
	}
	p.onPU = onPU
	p.fcTime, p.fcEnergy, p.fcLink, p.fcThrottled = fc.time, fc.energy, fc.linkEnergy, fc.throttled
	p.attn.Fold(e.Sys.AttnPIM, min(rlp*e.Cfg.Heads, e.Sys.AttnPIM.Count), pim.ClassAttention)
	tr := e.Sys.AttnLink.Send(units.Bytes(float64(rlp) * e.attnActTerm))
	p.commTime = tr.Time.Scale(e.layersF)
	p.commEnergy = tr.Energy.Scale(e.layersF)
	p.otherTime = e.otherBase
	if e.Opt.TLP > 1 {
		// Drafting (§2.2.2): the part of the serial draft time not hidden
		// under the previous iteration's verification.
		d := e.draftMemoized()
		serial := d.per.Seconds() * float64(e.Opt.TLP)
		p.otherTime += units.Seconds(serial * (1 - draftOverlap))
		p.draftEnergy, p.draftOnGPU = d.energy, d.onGPU
	}
}

// attnAt prices one iteration's attention kernel, at kvSum = ΣkvLen tokens
// of KV state, on the window's devices: its time, including the remaining
// per-layer kernel overheads, its energy and the throttle flag.
//
//papivet:noalloc
func (e *Engine) attnAt(p *windowPrice, kvSum int) (units.Seconds, units.Joules, bool) {
	h := float64(e.Cfg.Hidden)
	l := float64(kvSum)
	t, j, throttled := p.attn.Price(units.FLOPs(e.attnFlopsCoef*l*h*e.layersF), units.Bytes(4*l*h*e.layersF))
	return t + e.attnOvh, j, throttled
}
