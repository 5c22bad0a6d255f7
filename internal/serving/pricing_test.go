package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
)

// The pricing property is one half of the decode path's contract (the
// window matrix in window_test.go is the other): Engine.price, which works
// from memoized FC and draft kernels and the attention kernel's closed form
// in ΣkvLen, must be bit-identical to priceFresh, which re-derives every
// kernel from the per-request KV lengths on every call. Together the two
// imply that a free-running Stepper equals one that re-prices every
// iteration from scratch.

// priceFresh is the reference pricing: it rebuilds the attention kernel
// from a freshly allocated per-request KV-length slice and re-prices the FC
// and draft kernels from scratch. Attention runs on the disaggregated pool
// with one PIM device per head per request (up to the pool), plus, per
// layer, the Q/K/V vectors to the attention devices and the context back
// (§6.3's byte-level traffic).
func priceFresh(e *Engine, active []*request, onPU bool) iterPrice {
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
	p := iterPrice{attn: attn}
	if n := rlp * e.Opt.TLP; onPU {
		p.fc = e.fcPricePU(n)
	} else {
		p.fc = e.fcPricePIM(n)
	}
	if e.Opt.TLP > 1 {
		p.draft = e.draftPriceFresh()
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
// fresh prompts through long-grown contexts, and returns it with its ΣkvLen.
func randomActive(rng *rand.Rand, rlp int) ([]*request, int) {
	active := make([]*request, rlp)
	kvSum := 0
	for i := range active {
		r := &request{}
		r.InputLen = 1 + rng.Intn(2048)
		r.generated = rng.Intn(2048)
		active[i] = r
		kvSum += r.contextLen()
	}
	return active, kvSum
}

// checkPricing compares Engine.price against priceFresh on one active set.
func checkPricing(t *testing.T, c pricingCase, active []*request, kvSum int) {
	t.Helper()
	var got iterPrice
	c.eng.price(&got, len(active), kvSum, c.onPU)
	if want := priceFresh(c.eng, active, c.onPU); got != want {
		t.Fatalf("%s RLP=%d ΣkvLen=%d: memoized pricing diverged from fresh\n got  %+v\n want %+v",
			c.name, len(active), kvSum, got, want)
	}
}

// TestPricingMatchesFresh pins the pricing property on random active sets
// for every design, model, TLP and placement. Each engine prices twice per
// RLP draw, so both the cold (table miss) and the warm (cache hit) slot are
// compared.
func TestPricingMatchesFresh(t *testing.T) {
	cases := pricingCases(t)
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		for i := 0; i < 40; i++ {
			rlp := 1 + rng.Intn(128)
			for k := 0; k < 2; k++ {
				active, kvSum := randomActive(rng, rlp)
				checkPricing(t, c, active, kvSum)
			}
		}
	}
}

// FuzzPricing searches the pricing property's input space beyond the
// table: any case, any RLP up to 512, and any KV-length draw.
func FuzzPricing(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1))
	f.Add(int64(7), uint16(41), uint16(96))
	f.Add(int64(23), uint16(250), uint16(511))
	f.Add(int64(101), uint16(333), uint16(3))
	cases := pricingCases(f)
	f.Fuzz(func(t *testing.T, seed int64, casePick, rlpPick uint16) {
		c := cases[int(casePick)%len(cases)]
		active, kvSum := randomActive(rand.New(rand.NewSource(seed)), 1+int(rlpPick)%512)
		checkPricing(t, c, active, kvSum)
	})
}
