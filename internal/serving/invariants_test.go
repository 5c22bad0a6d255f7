package serving

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// This file is the property harness the decode windows made cheap to run:
// across randomized configurations and seeds, every Step of a run — free
// running and driven one iteration per Step — must preserve the
// conservation laws the incremental accounting claims to maintain:
//
//   - generated tokens ≡ Σ per-iteration committed tokens ≡ Σ per-request
//     output tokens;
//   - the incremental ΣkvLen and the O(1) KV-demand totals ≡ a from-scratch
//     recompute over the live request sets;
//   - the energy ledger's total ≡ the sum of its per-component charges, all
//     non-negative;
//   - no request finishes before its arrival, produces a token before its
//     TTFT, or reports a negative latency;
//
// and the two drives must agree bit-for-bit on the whole Result.
// FuzzStepperInvariants drives the same harness from fuzzed inputs.

// invariantCase is one randomized scenario drawn from a seed.
type invariantCase struct {
	sysIdx    int // index into invariantSystems
	modelIdx  int // index into invariantModels
	tlp       int
	maxBatch  int
	requests  int
	rate      float64 // arrivals/s; 0 = ready batch
	batchFrac float64 // fraction tagged batch-class
	static    bool
	seed      int64
}

func invariantSystems() []func() *design.System {
	return []func() *design.System{
		newPAPI,
		newA100AttAcc,
		newPIMOnlyPAPI,
	}
}

func invariantModels() []model.Config {
	return []model.Config{model.OPT30B(), model.LLaMA65B()}
}

// caseFromSeed derives a bounded scenario from arbitrary fuzz inputs.
func caseFromSeed(seed int64, sysPick, modelPick, tlpPick, batchPick, classPick byte, static bool) invariantCase {
	tlps := []int{1, 1, 2, 4} // weight TLP 1: it exercises macro-stepping
	return invariantCase{
		sysIdx:    int(sysPick) % len(invariantSystems()),
		modelIdx:  int(modelPick) % len(invariantModels()),
		tlp:       tlps[int(tlpPick)%len(tlps)],
		maxBatch:  3 + int(batchPick)%10,
		requests:  8 + int(seed%17),
		rate:      10 + float64(seed%31),
		batchFrac: float64(classPick%5) * 0.25, // 0, .25, .5, .75, 1
		static:    static,
		seed:      seed,
	}
}

// buildStream draws the case's request stream.
func (c invariantCase) buildStream() []workload.Request {
	ds := workload.GeneralQA()
	var reqs []workload.Request
	if c.static || c.rate == 0 {
		reqs = ds.Generate(c.requests, c.seed)
	} else {
		reqs = ds.Poisson(c.requests, c.rate, c.seed)
	}
	return workload.AssignClasses(reqs, c.batchFrac, c.seed+1)
}

// checkStepInvariants recomputes every incremental total from scratch and
// compares. It runs after every Step, so a drift is caught at the step that
// introduced it.
func checkStepInvariants(t *testing.T, s *Stepper) {
	t.Helper()
	// A request's cached footprint is its whole-sequence KV bytes, less
	// (under a block store) the prefix that was resident when it arrived.
	footprint := func(r *request) units.Bytes {
		if s.kvStore == nil && r.kvBytes != s.eng.Cfg.KVBytes(r.SeqLen()) {
			t.Fatalf("request %d caches footprint %v, want %v", r.ID, r.kvBytes, s.eng.Cfg.KVBytes(r.SeqLen()))
		}
		return r.kvBytes
	}
	kvSum := 0
	var kvActive units.Bytes
	var queued, admitted [2]int
	for _, r := range s.active {
		kvSum += r.InputLen + r.generated
		kvActive += footprint(r)
		admitted[tierOf(r.Class)]++
	}
	kvAll := kvActive
	for _, r := range s.pending {
		kvAll += footprint(r)
		queued[tierOf(r.Class)]++
	}
	if s.kvSum != kvSum {
		t.Fatalf("incremental ΣkvLen %d != recomputed %d", s.kvSum, kvSum)
	}
	if s.kvDemandActive != kvActive {
		t.Fatalf("incremental active KV demand %v != recomputed %v", s.kvDemandActive, kvActive)
	}
	if s.kvDemandAll != kvAll {
		t.Fatalf("incremental outstanding KV demand %v != recomputed %v", s.kvDemandAll, kvAll)
	}
	if s.admitted != admitted || s.queued != queued {
		t.Fatalf("tier counts (admitted %v queued %v) != recomputed (admitted %v queued %v)",
			s.admitted, s.queued, admitted, queued)
	}
	if s.intHint > len(s.pending) {
		t.Fatalf("interactive hint %d past the %d-request queue", s.intHint, len(s.pending))
	}
	for i, r := range s.pending[:s.intHint] {
		if r.Class != workload.ClassBatch {
			t.Fatalf("pending[%d] is interactive, below the hint %d", i, s.intHint)
		}
	}
	// The queue is the end of its buffer, and no other slot of the buffer
	// still holds a request.
	off := cap(s.queueBuf) - cap(s.pending)
	if len(s.pending) > 0 && &s.queueBuf[off] != &s.pending[0] {
		t.Fatalf("the %d-request queue is not the end of its buffer", len(s.pending))
	}
	for i, r := range s.queueBuf {
		if r != nil && (i < off || i >= off+len(s.pending)) {
			t.Fatalf("queue buffer slot %d, outside the queue, holds request %d", i, r.ID)
		}
	}
}

// checkResultInvariants asserts the end-of-run conservation laws.
func checkResultInvariants(t *testing.T, reqs []workload.Request, res Result) {
	t.Helper()

	// Token conservation: the run total, the per-iteration trace, and the
	// per-request metrics must all agree (the iteration trace is complete
	// for these sizes — far below the trace cap).
	iterTokens := 0
	for _, it := range res.IterStats {
		iterTokens += it.Tokens
	}
	if res.Iterations <= len(res.IterStats) && iterTokens != res.Tokens {
		t.Fatalf("Σ iteration tokens %d != run total %d", iterTokens, res.Tokens)
	}
	wantTokens := 0
	byID := map[int]workload.Request{}
	for _, r := range reqs {
		wantTokens += r.OutputLen
		byID[r.ID] = r
	}
	if res.Tokens != wantTokens {
		t.Fatalf("run generated %d tokens, stream demands %d", res.Tokens, wantTokens)
	}
	gotTokens := 0
	for _, rm := range res.Requests {
		gotTokens += rm.OutputTokens
		req := byID[rm.ID]
		if rm.OutputTokens != req.OutputLen {
			t.Fatalf("request %d produced %d of %d tokens", rm.ID, rm.OutputTokens, req.OutputLen)
		}
		// Latency sanity: epochs are arrival-relative, so nothing may be
		// negative, and a request cannot finish before its first token.
		if rm.TTFT < 0 || rm.TPOT < 0 || rm.Completion < 0 {
			t.Fatalf("request %d has negative latency: %+v", rm.ID, rm)
		}
		if rm.Completion < rm.TTFT {
			t.Fatalf("request %d finished at %v before its first token at %v", rm.ID, rm.Completion, rm.TTFT)
		}
		if rm.Class != req.Class {
			t.Fatalf("request %d class %v != stream class %v", rm.ID, rm.Class, req.Class)
		}
	}
	if gotTokens != res.Tokens {
		t.Fatalf("Σ per-request tokens %d != run total %d", gotTokens, res.Tokens)
	}

	// Energy conservation: the ledger total is exactly the sum of its
	// component charges, every component non-negative.
	var sum units.Joules
	for _, c := range res.Energy.Components() {
		j := res.Energy.Get(c)
		if j < 0 {
			t.Fatalf("component %s charged negative energy %v", c, j)
		}
		sum += j
	}
	if total := res.Energy.Total(); total != sum {
		t.Fatalf("ledger total %v != Σ components %v", total, sum)
	}
	if res.Preemptions < 0 {
		t.Fatalf("negative preemption count %d", res.Preemptions)
	}
}

// runCase drives one configuration to completion, free running or one
// iteration per Step, checking the step-level invariants throughout.
func runCase(t *testing.T, c invariantCase, oneIteration bool) Result {
	t.Helper()
	opt := DefaultOptions(c.tlp)
	opt.Seed = c.seed
	eng, err := New(invariantSystems()[c.sysIdx](), invariantModels()[c.modelIdx], opt)
	if err != nil {
		t.Fatalf("case %+v: %v", c, err)
	}
	reqs := c.buildStream()
	var st *Stepper
	if c.static {
		st, err = eng.NewBatchStepper(reqs)
	} else {
		st, err = eng.NewStreamStepper(reqs, c.maxBatch)
	}
	if err != nil {
		t.Fatalf("case %+v: %v", c, err)
	}
	res, _, err := drive(t, st, oneIteration)
	if err != nil {
		t.Fatalf("case %+v: %v", c, err)
	}
	checkResultInvariants(t, reqs, res)
	return res
}

// exerciseCase runs a configuration free running and one iteration per
// Step and pins their bit-identical agreement.
func exerciseCase(t *testing.T, c invariantCase) {
	free := runCase(t, c, false)
	one := runCase(t, c, true)
	if !reflect.DeepEqual(free, one) {
		t.Fatalf("case %+v: free-running windows and one-iteration stepping diverged:\n free: %+v\n  one: %+v", c, free, one)
	}
}

// TestStepperInvariantsRandomized sweeps a deterministic sample of the
// configuration space.
func TestStepperInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 24; i++ {
		c := caseFromSeed(int64(rng.Intn(1<<30)),
			byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
			byte(rng.Intn(256)), byte(rng.Intn(256)), rng.Intn(4) == 0)
		exerciseCase(t, c)
	}
}

// TestStepperInvariantsUnderPreemption pins the preemption machinery: a KV
// pool saturated with batch-class long-context work must evict for
// interactive arrivals, every evicted request must still complete, and the
// conservation laws must survive the evict-and-requeue churn — free running
// and one iteration per Step.
func TestStepperInvariantsUnderPreemption(t *testing.T) {
	// GPT-3 175B holds ~53 grown 4096-token requests in its 1.03 TB pool;
	// 60 batch-class requests of that size oversubscribe it, so the later
	// interactive arrivals can only be admitted by eviction.
	build := func() []workload.Request {
		var reqs []workload.Request
		for i := 0; i < 60; i++ {
			reqs = append(reqs, workload.Request{ID: i, InputLen: 2048, OutputLen: 2048,
				Class: workload.ClassBatch})
		}
		for i := 0; i < 12; i++ {
			reqs = append(reqs, workload.Request{ID: 60 + i, InputLen: 2048, OutputLen: 64,
				Arrival: units.Seconds(0.5 + 0.5*float64(i)), Class: workload.ClassInteractive})
		}
		return reqs
	}
	run := func(oneIteration bool) Result {
		eng, err := New(newPAPI(), model.GPT3_175B(), DefaultOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		reqs := build()
		st, err := eng.NewStreamStepper(reqs, 96)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := drive(t, st, oneIteration)
		if err != nil {
			t.Fatal(err)
		}
		checkResultInvariants(t, reqs, res)
		return res
	}
	free := run(false)
	if free.Preemptions == 0 {
		t.Fatal("KV-saturated tiered stream triggered no preemptions")
	}
	preempted := 0
	for _, rm := range free.Requests {
		if rm.Preemptions > 0 {
			preempted++
			if rm.Class != workload.ClassBatch {
				t.Fatalf("interactive request %d was preempted", rm.ID)
			}
		}
	}
	if preempted == 0 {
		t.Fatal("preemptions recorded on the run but on no request")
	}
	one := run(true)
	if !reflect.DeepEqual(free, one) {
		t.Fatalf("preemptive run diverged from one-iteration stepping:\n free: %+v\n  one: %+v", free, one)
	}
}

// FuzzStepperInvariants lets the fuzzer search the configuration space for
// a seed that breaks a conservation law or splits free-running windows from
// one-iteration stepping. The
// corpus seeds cover each system, both modes, speculation, and every
// class-mix weight.
func FuzzStepperInvariants(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), byte(0), byte(0), byte(0), false)
	f.Add(int64(7), byte(1), byte(1), byte(2), byte(4), byte(2), false)
	f.Add(int64(23), byte(2), byte(0), byte(3), byte(7), byte(4), true)
	f.Add(int64(101), byte(0), byte(1), byte(1), byte(9), byte(1), false)
	f.Add(int64(4099), byte(1), byte(0), byte(0), byte(5), byte(3), true)
	f.Fuzz(func(t *testing.T, seed int64, sysPick, modelPick, tlpPick, batchPick, classPick byte, static bool) {
		if seed < 0 {
			seed = -seed
		}
		exerciseCase(t, caseFromSeed(seed, sysPick, modelPick, tlpPick, batchPick, classPick, static))
	})
}
