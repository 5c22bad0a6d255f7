package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/units"
)

// The pricing property is one half of the decode path's contract (the
// window matrix in window_test.go is the other): a window priced the way the
// charging kernel (Stepper.charge) prices it — Engine.priceWindow once, from
// memoized FC and draft kernels, then Engine.attnAt per iteration, from the
// attention kernel's closed form in ΣkvLen on the window's hoisted
// roofline — must be bit-identical, iteration by iteration, to priceFresh,
// which re-derives every kernel from the per-request KV lengths on every
// call. Together the two imply that a free-running Stepper equals one that
// re-prices every iteration from scratch.

// freshPrice is one iteration's price as the kernel consumes it: the
// window's fixed terms (window, with its attention pricer left zero) and the
// attention kernel's time, energy and throttle flag.
type freshPrice struct {
	window        windowPrice
	attnTime      units.Seconds
	attnEnergy    units.Joules
	attnThrottled bool
}

// priceFresh is the reference pricing: it rebuilds the attention kernel
// from a freshly allocated per-request KV-length slice and prices it with
// the pool's full Execute, and re-prices the FC and draft kernels from
// scratch. Attention runs on the disaggregated pool with one PIM device per
// head per request (up to the pool), plus, per layer, the Q/K/V vectors to
// the attention devices and the context back (§6.3's byte-level traffic).
func priceFresh(e *Engine, active []*request, onPU bool) freshPrice {
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
	p := freshPrice{
		attnTime:      a.Time + e.Sys.AttnPIM.KernelOverhead.Scale(layers-1),
		attnEnergy:    a.Energy.Total(),
		attnThrottled: a.Throttled,
	}
	w := &p.window
	var fc fcCost
	if n := rlp * e.Opt.TLP; onPU {
		fc = e.fcPricePU(n)
	} else {
		fc = e.fcPricePIM(n)
	}
	w.onPU = onPU
	w.fcTime, w.fcEnergy, w.fcLink, w.fcThrottled = fc.time, fc.energy, fc.linkEnergy, fc.throttled
	w.commTime = tr.Time.Scale(layers)
	w.commEnergy = tr.Energy.Scale(layers)
	w.otherTime = e.otherBase
	if e.Opt.TLP > 1 {
		d := e.draftPriceFresh()
		w.otherTime += units.Seconds(d.per.Seconds() * float64(e.Opt.TLP) * (1 - draftOverlap))
		w.draftEnergy, w.draftOnGPU = d.energy, d.onGPU
	}
	return p
}

// pricingDesigns returns every design whose prices the figures and the
// benchmark compute: the five registry designs, the kvcache figure's
// single-device attention pool (PAPI-1stack), and the DSE grid's attention
// stack generations, pool sizes and fabric bandwidths (its α axis moves
// placement only, which the property takes as an input).
func pricingDesigns() []design.Spec {
	specs := design.Registry()
	oneStack := design.PAPI(0)
	oneStack.Name = "PAPI-1stack"
	oneStack.AttnPIM = design.HBMPIMPool(1)
	specs = append(specs, oneStack)
	weightReuse := false
	for _, st := range []struct{ fpus, banks, banksPerDie int }{{1, 1, 0}, {1, 2, 128}, {2, 1, 0}} {
		for _, devices := range []int{30, 60} {
			for _, gbps := range []float64{32, 64} {
				spec := design.PAPI(0)
				spec.Name = fmt.Sprintf("dse %dP%dB×%d @%gGB/s", st.fpus, st.banks, devices, gbps)
				spec.AttnPIM = &design.PIMSpec{
					FPUs: st.fpus, Banks: st.banks, BanksPerDie: st.banksPerDie, Count: devices,
					FCWeightReuse: &weightReuse, FCComputeEff: 0.5,
				}
				link := design.CXL2Link()
				link.GBps = gbps
				spec.AttnLink = link
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// pricingCase is one engine of the property: a design, a model, a TLP and a
// valid FC placement.
type pricingCase struct {
	name string
	eng  *Engine
	onPU bool
}

// pricingCases builds an engine for every design × model × TLP {1, 2, 4, 8}
// and pairs it with each FC placement the design can run: the GPU pool
// where it has one, the FC-PIM pool where it has one.
func pricingCases(t testing.TB) []pricingCase {
	var cases []pricingCase
	for _, spec := range pricingDesigns() {
		sys, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, cfg := range model.All() {
			for _, tlp := range []int{1, 2, 4, 8} {
				eng, err := New(sys, cfg, DefaultOptions(tlp))
				if err != nil {
					t.Fatalf("%s %s TLP=%d: %v", spec.Name, cfg.Name, tlp, err)
				}
				name := fmt.Sprintf("%s/%s/tlp%d", spec.Name, cfg.Name, tlp)
				if sys.HasGPU() {
					cases = append(cases, pricingCase{name + "/PU", eng, true})
				}
				if sys.FCPIM != nil {
					cases = append(cases, pricingCase{name + "/PIM", eng, false})
				}
			}
		}
	}
	return cases
}

// randomActive draws an active set of rlp requests whose KV lengths span
// fresh prompts through long-grown contexts.
func randomActive(rng *rand.Rand, rlp int) []*request {
	active := make([]*request, rlp)
	for i := range active {
		r := &request{}
		r.InputLen = 1 + rng.Intn(2048)
		r.generated = rng.Intn(2048)
		active[i] = r
	}
	return active
}

// checkPricing prices one window the way the charging kernel does — its
// fixed terms once, then the attention kernel per iteration against the
// same window price — over one iteration per active set (all of one RLP),
// and compares every iteration's price against priceFresh.
func checkPricing(t *testing.T, c pricingCase, iters ...[]*request) {
	t.Helper()
	rlp := len(iters[0])
	var p windowPrice
	c.eng.priceWindow(&p, rlp, c.onPU)
	for _, active := range iters {
		kvSum := 0
		for _, r := range active {
			kvSum += r.contextLen()
		}
		got := freshPrice{window: p}
		got.window.attn = pim.Pricer{}
		got.attnTime, got.attnEnergy, got.attnThrottled = c.eng.attnAt(&p, kvSum)
		if want := priceFresh(c.eng, active, c.onPU); got != want {
			t.Fatalf("%s RLP=%d ΣkvLen=%d: memoized pricing diverged from fresh\n got  %+v\n want %+v",
				c.name, rlp, kvSum, got, want)
		}
	}
}

// TestPricingMatchesFresh pins the pricing property on random active sets
// for every design, model, TLP and placement. Each engine prices two
// two-iteration windows per RLP draw, so both the cold (memo miss) and the
// warm (memo hit) slot are compared, and so is a second iteration priced on
// the same window's roofline.
func TestPricingMatchesFresh(t *testing.T) {
	cases := pricingCases(t)
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		for i := 0; i < 40; i++ {
			rlp := 1 + rng.Intn(128)
			for k := 0; k < 2; k++ {
				checkPricing(t, c, randomActive(rng, rlp), randomActive(rng, rlp))
			}
		}
	}
}

// FuzzPricing searches the pricing property's input space beyond the
// table: any case, any RLP up to 512, and any KV-length draws for a
// two-iteration window.
func FuzzPricing(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1))
	f.Add(int64(7), uint16(41), uint16(96))
	f.Add(int64(23), uint16(250), uint16(511))
	f.Add(int64(101), uint16(333), uint16(3))
	cases := pricingCases(f)
	f.Fuzz(func(t *testing.T, seed int64, casePick, rlpPick uint16) {
		c := cases[int(casePick)%len(cases)]
		rng, rlp := rand.New(rand.NewSource(seed)), 1+int(rlpPick)%512
		checkPricing(t, c, randomActive(rng, rlp), randomActive(rng, rlp))
	})
}
