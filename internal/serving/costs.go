package serving

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/papi-sim/papi/internal/design"
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
// model.AttentionKernelSum — which is what lets Engine.price compute it in
// closed form from the stepper's running ΣkvLen.
type attnCost struct {
	time       units.Seconds
	energy     units.Joules
	throttled  bool
	commTime   units.Seconds
	commEnergy units.Joules
}

// CostTable memoizes kernel pricings for one (system design, model, draft
// model) combination. Sharing one table across engines — the replicas of a
// cluster, the rate cells of a capacity sweep — prices each (placement, n)
// kernel once per process instead of once per iteration per cell. The table
// is safe for concurrent use; binding it to a second distinct combination is
// an error, caught at engine construction.
type CostTable struct {
	mu    sync.Mutex
	bound string
	pu    []fcCost
	pim   []fcCost
	draft draftPrice
}

// NewCostTable returns an empty, unbound cost table.
func NewCostTable() *CostTable { return &CostTable{} }

// bind ties the table to its pricing domain on first use and rejects reuse
// across a different combination, which would serve wrong prices silently.
// The key fingerprints every value the memoized prices depend on — the GPU
// pool, the FC-PIM pool, the PU fabric, and the target and draft model
// shapes — so two same-named systems with different hardware parameters are
// still told apart.
func (t *CostTable) bind(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bound == "" {
		t.bound = key
		return nil
	}
	if t.bound != key {
		return fmt.Errorf("serving: cost table already bound to a different system/model combination")
	}
	return nil
}

// costFingerprint renders the pricing-relevant configuration — the exact
// fields fcPricePU, fcPricePIM and draftPriceFresh read: the target and
// draft kernel shapes, the GPU pool, the FC-PIM pool's rates, datapath
// flags, energy model and governor, and the PU fabric. Hand-rolled with
// strconv (no fmt varargs boxing) because it runs once per engine and
// sweeps build engines by the dozen.
//
//papivet:allow unitsafety — the fingerprint serializes raw base-unit coefficients for cache identity; strconv.AppendFloat needs the bare float64s
func costFingerprint(sys *design.System, cfg, draft model.Config) string {
	b := make([]byte, 0, 256)
	num := func(f float64) {
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		b = append(b, '/')
	}
	txt := func(s string) {
		b = append(b, s...)
		b = append(b, '/')
	}
	shape := func(c model.Config) {
		txt(c.Name)
		num(float64(c.Hidden))
		num(float64(c.Layers))
		num(float64(c.FFNDim))
		num(float64(c.FFNMatrices))
	}
	shape(cfg)
	shape(draft)
	if sys.GPU != nil {
		s := sys.GPU.Spec
		txt("gpu")
		num(float64(sys.GPU.Count))
		num(float64(s.PeakCompute))
		num(float64(s.PeakMemBW))
		num(s.ComputeEff)
		num(s.MemoryEff)
		num(float64(s.ActivePower))
		num(float64(s.LaunchLatency))
	}
	if sys.FCPIM != nil {
		d := sys.FCPIM
		txt("fcpim")
		num(float64(d.Count))
		num(float64(d.Stack.ComputeRate()))
		num(float64(d.Stack.StreamBW()))
		num(d.FCComputeEff)
		b = strconv.AppendBool(b, d.FCWeightReuse)
		b = strconv.AppendBool(b, d.Governor)
		num(d.BudgetW)
		num(d.Energy.DRAMAccessPJB)
		num(d.Energy.TransferPJB)
		num(d.Energy.ComputePJB)
		num(float64(d.Energy.StaticW))
		num(float64(d.KernelOverhead))
	}
	l := sys.PULink
	txt(l.Name)
	num(float64(l.Latency))
	num(float64(l.BW))
	num(l.PJB)
	return string(b)
}

// memoFC returns slot n of an fcCost slice, growing the slice and filling
// the slot from miss on first demand. It serves both cache levels: the
// shared table (under its lock — pricing is pure and cheap, and holding the
// lock means concurrent engines never price the same n twice) and each
// engine's lock-free first-level cache.
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

// fcPU returns the memoized GPU pricing for n tokens in flight.
func (t *CostTable) fcPU(n int, compute func(int) fcCost) fcCost {
	t.mu.Lock()
	defer t.mu.Unlock()
	return memoFC(&t.pu, n, compute)
}

// fcPIM returns the memoized FC-PIM pricing for n tokens in flight.
func (t *CostTable) fcPIM(n int, compute func(int) fcCost) fcCost {
	t.mu.Lock()
	defer t.mu.Unlock()
	return memoFC(&t.pim, n, compute)
}

// draftCost returns the memoized draft-model pricing.
func (t *CostTable) draftCost(compute func() draftPrice) draftPrice {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.draft.valid {
		t.draft = compute()
	}
	return t.draft
}

// Pricing primitives ---------------------------------------------------------
//
// These compute the FC-phase and draft costs from scratch. The decode loop
// never calls them directly: it serves their results from the cost tables,
// filling a slot on first demand, and purity makes a memoized price
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

// Engine-local caches --------------------------------------------------------
//
// Each engine keeps an unlocked first-level cache in front of the shared
// table: steady-state iterations hit it without synchronisation, and only a
// new parallelism level reaches the locked table.

// fcCostPU returns the (memoized) GPU FC pricing for n.
func (e *Engine) fcCostPU(n int) fcCost {
	return memoFC(&e.puCache, n, func(n int) fcCost { return e.costs.fcPU(n, e.fcPricePU) })
}

// fcCostPIM returns the (memoized) FC-PIM pricing for n.
func (e *Engine) fcCostPIM(n int) fcCost {
	return memoFC(&e.pimCache, n, func(n int) fcCost { return e.costs.fcPIM(n, e.fcPricePIM) })
}

// draftMemoized returns the (memoized) draft-model pricing.
func (e *Engine) draftMemoized() draftPrice {
	if !e.draftCache.valid {
		e.draftCache = e.costs.draftCost(e.draftPriceFresh)
	}
	return e.draftCache
}

// iterPrice is one decoding iteration's pricing: the FC phase, the
// attention phase and, with speculation, the draft model.
type iterPrice struct {
	fc    fcCost
	attn  attnCost
	draft draftPrice
}

// price fills p with the pricing of one decoding iteration at rlp active
// requests holding kvSum = ΣkvLen tokens of KV state, with the FC phase on
// the GPU pool (onPU) or on the FC-PIM pool; p must start zeroed. Every
// input is memoized or closed-form: the FC and draft kernels come from the
// cost tables, and the attention kernel is model.AttentionKernelSum's
// closed form in ΣkvLen against the engine-hoisted coefficients, priced
// through pim.ExecuteAttention on one PIM device per head per request (up
// to the pool), plus, per layer, the Q/K/V vectors to the attention devices
// and the context back (§6.3's byte-level traffic). The result is
// bit-identical to re-deriving every kernel from the per-request KV lengths
// — memoized pricing is pure, and the folded coefficients are exact-integer
// products — which the pricing property tests pin per design, model, TLP
// and placement.
//
// p is an out-parameter rather than a result, and its attention fields are
// stored one by one, because this runs once per iteration: a struct result
// or composite literal makes the compiler assemble the struct in a stack
// temporary and copy it with wide loads that cannot be forwarded from the
// narrow field stores, a stall that cost the fleet benchmarks 5–10 % of
// their CPU time on a 2-vCPU x86-64 VM.
//
//papivet:noalloc
func (e *Engine) price(p *iterPrice, rlp, kvSum int, onPU bool) {
	if n := rlp * e.Opt.TLP; onPU {
		p.fc = e.fcCostPU(n)
	} else {
		p.fc = e.fcCostPIM(n)
	}
	h := float64(e.Cfg.Hidden)
	l := float64(kvSum)
	attnFlops := e.attnFlopsCoef * l * h
	attnKV := 4 * l * h
	a := &p.attn
	a.time, a.energy, a.throttled = e.Sys.AttnPIM.ExecuteAttention(
		units.FLOPs(attnFlops*e.layersF), units.Bytes(attnKV*e.layersF),
		min(rlp*e.Cfg.Heads, e.Sys.AttnPIM.Count))
	a.time += e.attnOvh
	tr := e.Sys.AttnLink.Send(units.Bytes(float64(rlp) * e.attnActTerm))
	a.commTime = tr.Time.Scale(e.layersF)
	a.commEnergy = tr.Energy.Scale(e.layersF)
	if e.Opt.TLP > 1 {
		p.draft = e.draftMemoized()
	}
}
