package serving

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/units"
)

// FastPathMode selects between the memoized fast path through the decode
// loop (incremental KV accounting, kernel-cost memoization, macro-stepping)
// and the reference path that re-derives and re-prices every kernel each
// iteration. Both paths produce bit-identical Results — the fast path's
// invariant, pinned by the equivalence tests in fastpath_test.go — so the
// reference path exists as the oracle (`papibench -fastpath=off`).
type FastPathMode int

// Fast-path modes.
const (
	// FastPathAuto follows the package default (on, unless
	// SetDefaultFastPath flipped it).
	FastPathAuto FastPathMode = iota
	// FastPathOn forces the fast path for this engine.
	FastPathOn
	// FastPathOff forces the reference path for this engine.
	FastPathOff
)

// fastPathDefault holds the package-wide default: 0 = on, 1 = off. Atomic so
// parallel sweep workers constructing engines never race with a flag parse.
var fastPathDefault atomic.Int32

// SetDefaultFastPath sets the package-wide default fast-path switch, which
// engines built with FastPathAuto follow (cmd/papibench's -fastpath flag).
func SetDefaultFastPath(on bool) {
	if on {
		fastPathDefault.Store(0)
	} else {
		fastPathDefault.Store(1)
	}
}

// DefaultFastPath reports the package-wide default fast-path switch.
func DefaultFastPath() bool { return fastPathDefault.Load() == 0 }

// enabled resolves the mode against the package default.
func (m FastPathMode) enabled() bool {
	switch m {
	case FastPathOn:
		return true
	case FastPathOff:
		return false
	}
	return DefaultFastPath()
}

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
// model.AttentionKernelSum — which is what lets the fast path price it in
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
// These compute the FC-phase and draft costs from scratch with exactly the
// arithmetic the reference decode loop has always used. The reference path
// calls them fresh every iteration; the fast path serves their results from
// the cost tables. Purity makes the two bit-identical.

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

// priceFresh is the reference path's pricing: it rebuilds the attention
// kernel from a freshly allocated per-request KV-length slice and re-prices
// the FC and draft kernels from scratch on every call. Attention runs on the
// disaggregated pool with one PIM device per head per request (up to the
// pool), plus, per layer, the Q/K/V vectors to the attention devices and the
// context back (§6.3's byte-level traffic).
func (e *Engine) priceFresh(active []*request, onPU bool) (fcCost, attnCost, draftPrice) {
	rlp := len(active)
	kvLens := make([]int, rlp)
	for i, r := range active {
		kvLens[i] = r.contextLen()
	}
	attnLayer := e.Cfg.AttentionKernel(e.Opt.TLP, kvLens)
	layers := float64(e.Cfg.Layers)
	a := e.Sys.AttnPIM.Execute(pim.Kernel{
		Name:        "attention",
		Class:       pim.ClassAttention,
		Flops:       attnLayer.Flops.Scale(layers),
		UniqueBytes: attnLayer.KVBytes.Scale(layers),
	}, min(rlp*e.Cfg.Heads, e.Sys.AttnPIM.Count))
	tr := e.Sys.AttnLink.Send(attnLayer.ActivationBytes)
	attn := attnCost{
		time:       a.Time + e.Sys.AttnPIM.KernelOverhead.Scale(layers-1),
		energy:     a.Energy.Total(),
		throttled:  a.Throttled,
		commTime:   tr.Time.Scale(layers),
		commEnergy: tr.Energy.Scale(layers),
	}
	var fc fcCost
	if n := rlp * e.Opt.TLP; onPU {
		fc = e.fcPricePU(n)
	} else {
		fc = e.fcPricePIM(n)
	}
	var draft draftPrice
	if e.Opt.TLP > 1 {
		draft = e.draftPriceFresh()
	}
	return fc, attn, draft
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
