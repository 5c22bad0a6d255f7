package serving

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/workload"
)

// fixedBatch builds b uniform requests for deterministic comparisons.
func fixedBatch(b, in, out int) []workload.Request {
	reqs := make([]workload.Request, b)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, InputLen: in, OutputLen: out}
	}
	return reqs
}

// Fresh registry systems: each engine owns its instance.
func newPAPI() *design.System        { return design.MustBuild(design.PAPI(0)) }
func newA100AttAcc() *design.System  { return design.MustBuild(design.A100AttAcc()) }
func newA100HBMPIM() *design.System  { return design.MustBuild(design.A100HBMPIM()) }
func newAttAccOnly() *design.System  { return design.MustBuild(design.AttAccOnly()) }
func newPIMOnlyPAPI() *design.System { return design.MustBuild(design.PIMOnlyPAPI()) }

func mustEngine(t *testing.T, sys *design.System, cfg model.Config, opt Options) *Engine {
	t.Helper()
	e, err := New(sys, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(newPAPI(), model.LLaMA65B(), Options{TLP: 0}); err == nil {
		t.Error("TLP 0 should fail")
	}
	bad := newPAPI()
	bad.Policy = nil
	if _, err := New(bad, model.LLaMA65B(), DefaultOptions(1)); err == nil {
		t.Error("invalid system should fail")
	}
}

func TestRunBatchBasics(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	res, err := e.RunBatch(fixedBatch(4, 64, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 4*32 {
		t.Fatalf("tokens = %d, want 128", res.Tokens)
	}
	if res.Iterations != 32 {
		t.Fatalf("iterations = %d, want 32 (TLP=1, uniform outputs)", res.Iterations)
	}
	if res.PrefillTime <= 0 || res.DecodeTime <= 0 {
		t.Fatalf("times: prefill %v decode %v", res.PrefillTime, res.DecodeTime)
	}
	if got := res.Breakdown.Total(); math.Abs(float64(got-res.DecodeTime)) > 1e-9 {
		t.Fatalf("breakdown %v != decode time %v", got, res.DecodeTime)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if len(res.RLPTrace) != res.Iterations {
		t.Fatalf("RLP trace %d entries, want %d", len(res.RLPTrace), res.Iterations)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	if _, err := e.RunBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, err := e.RunBatch([]workload.Request{{ID: 0, InputLen: 0, OutputLen: 5}}); err == nil {
		t.Fatal("zero input length should fail")
	}
}

func TestKVCapacityEnforced(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.GPT3_175B(), DefaultOptions(1))
	// 960 GiB pool / 9.66 GB per 2048-token request ⇒ a 256-deep batch of
	// 2048+2048 requests cannot fit.
	_, err := e.RunBatch(fixedBatch(256, 2048, 2048))
	if err == nil || !strings.Contains(err.Error(), "KV footprint") {
		t.Fatalf("expected KV capacity error, got %v", err)
	}
}

func TestRLPDecaysWithVariedOutputs(t *testing.T) {
	// Fig. 3: requests with different output lengths finish at different
	// iterations, so RLP decays monotonically under static batching.
	e := mustEngine(t, newA100AttAcc(), model.LLaMA65B(), DefaultOptions(1))
	reqs := workload.CreativeWriting().Generate(16, 9)
	res, err := e.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RLPTrace[0] != 16 {
		t.Fatalf("initial RLP = %d", res.RLPTrace[0])
	}
	for i := 1; i < len(res.RLPTrace); i++ {
		if res.RLPTrace[i] > res.RLPTrace[i-1] {
			t.Fatal("RLP must not grow under static batching")
		}
	}
	last := res.RLPTrace[len(res.RLPTrace)-1]
	if last >= 16 {
		t.Fatalf("RLP never decayed: final %d", last)
	}
	// Per-request iteration counts differ (the Fig. 3 staircase).
	min, max := res.PerRequestIterations[0], res.PerRequestIterations[0]
	for _, it := range res.PerRequestIterations {
		if it < min {
			min = it
		}
		if it > max {
			max = it
		}
	}
	if min == max {
		t.Fatal("all requests took identical iterations; no RLP dynamics")
	}
}

func TestSpeculationReducesIterations(t *testing.T) {
	sys := newA100AttAcc()
	out := 128
	plain := mustEngine(t, sys, model.GPT3_66B(), DefaultOptions(1))
	spec := mustEngine(t, sys, model.GPT3_66B(), DefaultOptions(4))
	rp, err := plain.RunBatch(fixedBatch(4, 64, out))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := spec.RunBatch(fixedBatch(4, 64, out))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Iterations >= rp.Iterations {
		t.Fatalf("speculation should cut iterations: %d vs %d", rs.Iterations, rp.Iterations)
	}
	// Expected committed per iteration at β=0.8, TLP=4 is ≈2.95.
	perIter := float64(rs.Tokens) / float64(rs.Iterations) / 4
	if perIter < 2.2 || perIter > 3.7 {
		t.Fatalf("committed/iteration/request = %.2f, want ≈2.95", perIter)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(4))
		res, err := e.RunBatch(fixedBatch(8, 64, 64))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.DecodeTime != b.DecodeTime || a.Iterations != b.Iterations || a.Tokens != b.Tokens {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Iterations, b.Iterations)
	}
}

func TestPAPIReschedulesOnRLPDecay(t *testing.T) {
	// Start above α (batch 32 ⇒ AI estimate 32 > 24): FC on the PUs. As
	// requests finish, RLP falls below α and PAPI reschedules FC to FC-PIM —
	// the Fig. 5(d) behaviour.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := workload.CreativeWriting().Generate(32, 4)
	res, err := e.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reschedules == 0 {
		t.Fatal("PAPI should reschedule as RLP decays across α")
	}
	sawPU, sawPIM := false, false
	for _, it := range res.IterStats {
		if it.Placement == sched.PlacePU {
			sawPU = true
		} else {
			sawPIM = true
		}
	}
	if !sawPU || !sawPIM {
		t.Fatalf("expected both placements in trace: PU=%v PIM=%v", sawPU, sawPIM)
	}
}

func TestStaticBaselinesNeverReschedule(t *testing.T) {
	for _, sys := range []*design.System{newA100AttAcc(), newAttAccOnly()} {
		e := mustEngine(t, sys, model.LLaMA65B(), DefaultOptions(1))
		res, err := e.RunBatch(workload.CreativeWriting().Generate(32, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reschedules != 0 {
			t.Errorf("%s rescheduled %d times; static policies must not", sys.Name, res.Reschedules)
		}
	}
}

func TestPAPIBeatsBaselineAtLowParallelism(t *testing.T) {
	// Batch 4, spec 1 (AI estimate 4 ≪ α): PAPI runs FC on FC-PIM and must
	// clearly beat A100+AttAcc, which streams all weights through the GPU.
	cfg := model.LLaMA65B()
	reqs := fixedBatch(4, 64, 32)
	papi := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	base := mustEngine(t, newA100AttAcc(), cfg, DefaultOptions(1))
	rp, err := papi.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(rb.TotalTime()) / float64(rp.TotalTime())
	if speedup < 1.5 {
		t.Fatalf("PAPI speedup at (4,1) = %.2f, want > 1.5", speedup)
	}
}

func TestPAPIConvergesToBaselineAtHighParallelism(t *testing.T) {
	// §7.3: at high TLP/RLP PAPI assigns FC to the GPU and converges to
	// A100+AttAcc (modulo the attention-device difference).
	cfg := model.LLaMA65B()
	reqs := fixedBatch(64, 64, 32)
	papi := mustEngine(t, newPAPI(), cfg, DefaultOptions(4))
	base := mustEngine(t, newA100AttAcc(), cfg, DefaultOptions(4))
	rp, _ := papi.RunBatch(reqs)
	rb, _ := base.RunBatch(reqs)
	ratio := float64(rb.TotalTime()) / float64(rp.TotalTime())
	if ratio < 0.85 || ratio > 1.3 {
		t.Fatalf("PAPI/baseline at (64,4) = %.2f, want ≈1", ratio)
	}
}

func TestAttAccOnlyPaysForPrefill(t *testing.T) {
	// §7.4: prefill is compute-bound; on AttAcc-only it runs on PIM and is
	// dramatically slower than on the GPU designs.
	cfg := model.LLaMA65B()
	reqs := fixedBatch(16, 256, 16)
	pimOnly := mustEngine(t, newAttAccOnly(), cfg, DefaultOptions(1))
	hetero := mustEngine(t, newA100AttAcc(), cfg, DefaultOptions(1))
	rp, _ := pimOnly.RunBatch(reqs)
	rh, _ := hetero.RunBatch(reqs)
	if float64(rp.PrefillTime) < 5*float64(rh.PrefillTime) {
		t.Fatalf("AttAcc-only prefill %v should be ≫ GPU prefill %v", rp.PrefillTime, rh.PrefillTime)
	}
}

func TestEnergyComponentsMatchDesign(t *testing.T) {
	cfg := model.LLaMA65B()
	reqs := fixedBatch(4, 64, 16)

	papi := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	rp, _ := papi.RunBatch(reqs)
	if rp.Energy.Get(energy.FCPIM) <= 0 {
		t.Error("PAPI at batch 4 should charge FC-PIM energy")
	}
	if rp.Energy.Get(energy.GPUIdle) <= 0 {
		t.Error("PAPI at batch 4 should charge GPU idle energy")
	}

	base := mustEngine(t, newA100AttAcc(), cfg, DefaultOptions(1))
	rb, _ := base.RunBatch(reqs)
	if rb.Energy.Get(energy.FCPIM) != 0 {
		t.Error("A100+AttAcc has no FC-PIM to charge")
	}
	if rb.Energy.Get(energy.GPUActive) <= 0 {
		t.Error("A100+AttAcc must charge GPU active energy")
	}

	ao := mustEngine(t, newAttAccOnly(), cfg, DefaultOptions(1))
	ra, _ := ao.RunBatch(reqs)
	if ra.Energy.Get(energy.GPUActive) != 0 || ra.Energy.Get(energy.GPUIdle) != 0 {
		t.Error("AttAcc-only has no GPU energy")
	}
}

func TestThrottleReported(t *testing.T) {
	// AttAcc's 1P1B devices exceed the power budget on FC with no reuse;
	// the governor throttles and the result must say so.
	e := mustEngine(t, newAttAccOnly(), model.LLaMA65B(), DefaultOptions(1))
	res, err := e.RunBatch(fixedBatch(1, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Throttled {
		t.Fatal("AttAcc-only at batch 1 should report power throttling")
	}
}

func TestTimePerToken(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	res, _ := e.RunBatch(fixedBatch(4, 64, 32))
	want := float64(res.DecodeTime) / float64(res.Tokens)
	if math.Abs(float64(res.TimePerToken())-want) > 1e-15 {
		t.Fatalf("per-token = %v", res.TimePerToken())
	}
	var empty Result
	if empty.TimePerToken() != 0 {
		t.Fatal("empty result per-token should be 0")
	}
}

// Property: total tokens always equals the sum of requested output lengths
// (commit clamping is exact), for any TLP and sampling seed.
func TestTokenConservationProperty(t *testing.T) {
	sys := newPAPI()
	cfg := model.LLaMA65B()
	f := func(tlpRaw, outRaw uint8, seed int64) bool {
		opt := DefaultOptions(int(tlpRaw)%6 + 1)
		opt.Seed = seed
		e, err := New(sys, cfg, opt)
		if err != nil {
			return false
		}
		out := int(outRaw)%40 + 1
		res, err := e.RunBatch(fixedBatch(3, 16, out))
		if err != nil {
			return false
		}
		return res.Tokens == 3*out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
