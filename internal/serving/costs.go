package serving

import (
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
// plus the engine's TLP and DraftOverlap.
type draftPrice struct {
	valid  bool
	per    units.Seconds
	energy units.Joules
	onGPU  bool
}

// attnCost is one priced attention phase: the attention-pool execution time
// (including per-layer kernel overheads), its energy, the throttle flag, and
// the per-iteration Q/K/V + context traffic on the attention fabric. It is a
// pure function of (TLP, ΣkvLen, RLP) — the incremental key of
// model.AttentionKernelSum — which is what lets Engine.priceAttn compute
// it in closed form from the stepper's running ΣkvLen.
type attnCost struct {
	time       units.Seconds
	energy     units.Joules
	throttled  bool
	commTime   units.Seconds
	commEnergy units.Joules
}

// memoFC returns slot n of an engine's fcCost memo, growing the slice and
// filling the slot from miss on first demand. The memo belongs to one engine
// and is read and written only by the goroutine stepping it, so it needs no
// lock; a fresh pricing costs well under a microsecond, so each engine
// pricing its own (placement, n) kernels once is cheaper than sharing a
// locked table across engines.
func memoFC(costs *[]fcCost, n int, miss func(int) fcCost) fcCost {
	if n < len(*costs) && (*costs)[n].valid {
		return (*costs)[n]
	}
	c := miss(n)
	if n >= len(*costs) {
		grown := make([]fcCost, n+1+n/2)
		copy(grown, *costs)
		*costs = grown
	}
	(*costs)[n] = c
	return c
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

// draftPriceFresh prices one draft-model FC iteration (§2.2.2) on whichever
// pool runs it.
func (e *Engine) draftPriceFresh() draftPrice {
	k := e.draft.FCIterationKernel(1)
	if e.Sys.HasGPU() {
		g := e.Sys.GPU.Execute(k.Flops, k.WeightBytes)
		return draftPrice{valid: true, per: g.Time, energy: g.Energy, onGPU: true}
	}
	p := e.Sys.FCPIM.Execute(pim.Kernel{Name: "draft", Class: pim.ClassFC, Flops: k.Flops, UniqueBytes: k.WeightBytes}, 0)
	return draftPrice{valid: true, per: p.Time, energy: p.Energy.Total()}
}

// fcCostPU returns the (memoized) GPU FC pricing for n.
func (e *Engine) fcCostPU(n int) fcCost {
	return memoFC(&e.puCache, n, e.fcPricePU)
}

// fcCostPIM returns the (memoized) FC-PIM pricing for n.
func (e *Engine) fcCostPIM(n int) fcCost {
	return memoFC(&e.pimCache, n, e.fcPricePIM)
}

// draftMemoized returns the (memoized) draft-model pricing.
func (e *Engine) draftMemoized() draftPrice {
	if !e.draftCache.valid {
		e.draftCache = e.draftPriceFresh()
	}
	return e.draftCache
}

// iterPrice is one decoding iteration's pricing: the FC phase on its
// placement, the attention phase and, with speculation, the draft model.
type iterPrice struct {
	fc    fcCost
	onPU  bool // the FC phase runs on the GPU pool, not on FC-PIM
	attn  attnCost
	draft draftPrice
}

// A decode window prices its iterations in two parts, the split that lets
// it hoist everything RLP, TLP and placement fix out of its loop:
// priceWindow fills the FC phase, the attention link transfer and the draft
// model once per window, and priceAttn the attention kernel, the one term
// that moves with ΣkvLen, once per iteration. Every input is memoized or
// closed-form: the FC and draft kernels come from the engine's memo, and the
// attention kernel is model.AttentionKernelSum's closed form in ΣkvLen
// against the engine-hoisted coefficients, priced through
// pim.ExecuteAttention on one PIM device per head per request (up to the
// pool), plus, per layer, the Q/K/V vectors to the attention devices and the
// context back (§6.3's byte-level traffic). The result is bit-identical to
// re-deriving every kernel from the per-request KV lengths on every
// iteration — memoized pricing is pure, and the folded coefficients are
// exact-integer products — which the pricing property tests pin per design,
// model, TLP and placement, over windows of several iterations.
//
// Both write through a pointer, field by field, rather than return a
// struct: a struct result or composite literal makes the compiler assemble
// the struct in a stack temporary and copy it with wide loads that cannot be
// forwarded from the narrow field stores, a stall that cost the fleet
// benchmarks 5–10 % of their CPU time on a 2-vCPU x86-64 VM.

// priceWindow fills p's fixed terms for a window at rlp active requests
// with the FC phase on the GPU pool (onPU) or on the FC-PIM pool.
//
//papivet:noalloc
func (e *Engine) priceWindow(p *iterPrice, rlp int, onPU bool) {
	if n := rlp * e.Opt.TLP; onPU {
		p.fc = e.fcCostPU(n)
	} else {
		p.fc = e.fcCostPIM(n)
	}
	p.onPU = onPU
	tr := e.Sys.AttnLink.Send(units.Bytes(float64(rlp) * e.attnActTerm))
	p.attn.commTime = tr.Time.Scale(e.layersF)
	p.attn.commEnergy = tr.Energy.Scale(e.layersF)
	if e.Opt.TLP > 1 {
		p.draft = e.draftMemoized()
	}
}

// priceAttn fills a's attention-kernel execution for one iteration at rlp
// active requests holding kvSum = ΣkvLen tokens of KV state.
//
//papivet:noalloc
func (e *Engine) priceAttn(a *attnCost, rlp, kvSum int) {
	h := float64(e.Cfg.Hidden)
	l := float64(kvSum)
	attnFlops := e.attnFlopsCoef * l * h
	attnKV := 4 * l * h
	a.time, a.energy, a.throttled = e.Sys.AttnPIM.ExecuteAttention(
		units.FLOPs(attnFlops*e.layersF), units.Bytes(attnKV*e.layersF),
		min(rlp*e.Cfg.Heads, e.Sys.AttnPIM.Count))
	a.time += e.attnOvh
}
