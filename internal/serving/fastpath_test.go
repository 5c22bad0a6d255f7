package serving

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// The fast path's contract is bit-for-bit equivalence: memoized cost tables,
// incremental KV accounting and macro-stepping must reproduce the reference
// decode loop's full Result — times, energy ledger, traces, per-request
// metrics — exactly, for every evaluated system, both batching modes, and
// both the deterministic (TLP = 1) and speculative (TLP = 4) regimes.

// fastpathSystems returns every evaluated design (Fig. 8's four plus the
// §7.4 PIM-only PAPI variant).
func fastpathSystems() map[string]func() *design.System {
	return map[string]func() *design.System{
		"PAPI":          newPAPI,
		"A100+AttAcc":   newA100AttAcc,
		"A100+HBM-PIM":  newA100HBMPIM,
		"AttAcc-only":   newAttAccOnly,
		"PIM-only PAPI": newPIMOnlyPAPI,
	}
}

func runBoth(t *testing.T, newSys func() *design.System, tlp int,
	drive func(e *Engine) (Result, error)) (fast, ref Result) {
	t.Helper()
	for _, mode := range []FastPathMode{FastPathOn, FastPathOff} {
		opt := DefaultOptions(tlp)
		opt.FastPath = mode
		eng, err := New(newSys(), model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := drive(eng)
		if err != nil {
			t.Fatal(err)
		}
		if mode == FastPathOn {
			fast = res
		} else {
			ref = res
		}
	}
	return fast, ref
}

func TestFastPathEquivalenceStatic(t *testing.T) {
	reqs := workload.GeneralQA().Generate(12, 7)
	for name, newSys := range fastpathSystems() {
		for _, tlp := range []int{1, 4} {
			fast, ref := runBoth(t, newSys, tlp, func(e *Engine) (Result, error) {
				return e.RunBatch(reqs)
			})
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s static TLP=%d: fast path diverged from reference\n fast: %+v\n  ref: %+v",
					name, tlp, fast, ref)
			}
		}
	}
}

func TestFastPathEquivalenceStream(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(16, 25, 11)
	for name, newSys := range fastpathSystems() {
		for _, tlp := range []int{1, 4} {
			fast, ref := runBoth(t, newSys, tlp, func(e *Engine) (Result, error) {
				return e.RunContinuous(reqs, 6)
			})
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s stream TLP=%d: fast path diverged from reference\n fast: %+v\n  ref: %+v",
					name, tlp, fast, ref)
			}
		}
	}
}

// TestFastPathEquivalenceTiered pins the PR 10 coverage extension: tiered
// streams (both priority classes outstanding, with real preemption churn)
// macro-step on both the deterministic and speculative regimes and must
// still reproduce the reference path exactly. The preemption guard makes
// the pin non-vacuous — the stream is tuned so interactive admissions
// actually evict batch requests.
func TestFastPathEquivalenceTiered(t *testing.T) {
	// Mixed-class streams across every evaluated design and both regimes.
	reqs := workload.AssignClasses(workload.GeneralQA().Poisson(32, 60, 13), 0.5, 17)
	for name, newSys := range fastpathSystems() {
		for _, tlp := range []int{1, 4} {
			fast, ref := runBoth(t, newSys, tlp, func(e *Engine) (Result, error) {
				return e.RunContinuous(reqs, 4)
			})
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s tiered TLP=%d: fast path diverged from reference\n fast: %+v\n  ref: %+v",
					name, tlp, fast, ref)
			}
		}
	}

	// Preemption churn: a KV pool saturated with batch-class long-context
	// work (the TestStepperInvariantsUnderPreemption shape) forces
	// interactive admissions to evict, so the window bound's preemption
	// trigger is exercised for real on both regimes.
	var saturated []workload.Request
	for i := 0; i < 60; i++ {
		saturated = append(saturated, workload.Request{ID: i, InputLen: 2048, OutputLen: 2048,
			Class: workload.ClassBatch})
	}
	for i := 0; i < 12; i++ {
		saturated = append(saturated, workload.Request{ID: 60 + i, InputLen: 2048, OutputLen: 64,
			Arrival: units.Seconds(0.5 + 0.5*float64(i)), Class: workload.ClassInteractive})
	}
	for _, tlp := range []int{1, 4} {
		var fast, ref Result
		for _, mode := range []FastPathMode{FastPathOn, FastPathOff} {
			opt := DefaultOptions(tlp)
			opt.FastPath = mode
			eng, err := New(newPAPI(), model.GPT3_175B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunContinuous(saturated, 96)
			if err != nil {
				t.Fatal(err)
			}
			if mode == FastPathOn {
				fast = res
			} else {
				ref = res
			}
		}
		if fast.Preemptions == 0 {
			t.Errorf("TLP=%d: saturated tiered stream triggered no preemptions — the pin is vacuous", tlp)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("preemptive tiered TLP=%d: fast path diverged from reference\n fast: %+v\n  ref: %+v",
				tlp, fast, ref)
		}
	}
}

// FuzzMacroEquivalence searches the macro-window configuration space — TLP
// 1–4, randomized class mixes, admission caps, arrival rates, and caller
// horizon schedules (the cluster driver's SetHorizon cadence) — for an
// input that splits the fast path from the reference. Horizons only bound
// fast-path windows, so both paths are driven with the identical schedule
// and must agree bit-for-bit anyway.
func FuzzMacroEquivalence(f *testing.F) {
	f.Add(int64(3), byte(0), byte(2), byte(3), byte(12), false)
	f.Add(int64(11), byte(3), byte(1), byte(0), byte(40), false)
	f.Add(int64(29), byte(1), byte(4), byte(6), byte(3), true)
	f.Add(int64(101), byte(2), byte(3), byte(2), byte(0), false)
	f.Fuzz(func(t *testing.T, seed int64, tlpPick, classPick, batchPick, horizPick byte, static bool) {
		if seed < 0 {
			seed = -seed
		}
		tlp := 1 + int(tlpPick)%4
		batchFrac := float64(classPick%5) * 0.25
		maxBatch := 2 + int(batchPick)%8
		n := 8 + int(seed%25)
		rate := 20 + float64(seed%61)
		var reqs []workload.Request
		if static {
			reqs = workload.GeneralQA().Generate(n, seed)
		} else {
			reqs = workload.GeneralQA().Poisson(n, rate, seed)
		}
		reqs = workload.AssignClasses(reqs, batchFrac, seed+1)
		// 0 disables the horizon schedule; otherwise the caller re-arms a
		// fresh bound every delta seconds, like the cluster kernel would.
		delta := units.Seconds(float64(horizPick%50) * 1e-3)

		run := func(mode FastPathMode) Result {
			opt := DefaultOptions(tlp)
			opt.Seed = seed
			opt.FastPath = mode
			eng, err := New(newPAPI(), model.OPT30B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			var st *Stepper
			if static {
				st, err = eng.NewBatchStepper(reqs)
			} else {
				st, err = eng.NewStreamStepper(reqs, maxBatch)
			}
			if err != nil {
				t.Fatal(err)
			}
			horizon := delta
			for {
				if delta > 0 {
					for st.Now() >= horizon {
						horizon += delta
					}
					st.SetHorizon(horizon)
				}
				info, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				if info.Kind == StepDrained {
					break
				}
			}
			return st.Finalize()
		}
		fast, ref := run(FastPathOn), run(FastPathOff)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("macro window diverged (seed=%d tlp=%d frac=%.2f maxBatch=%d delta=%v static=%v)\n fast: %+v\n  ref: %+v",
				seed, tlp, batchFrac, maxBatch, delta, static, fast, ref)
		}
	})
}

// TestFastPathEquivalenceSharedTable runs the fast path twice against one
// shared CostTable (warming it on the first run) and pins that a warm table
// changes nothing — the memoized prices equal the freshly computed ones.
func TestFastPathEquivalenceSharedTable(t *testing.T) {
	reqs := workload.CreativeWriting().Poisson(12, 40, 3)
	table := NewCostTable()
	var runs [2]Result
	for i := range runs {
		opt := DefaultOptions(1)
		opt.FastPath = FastPathOn
		opt.Costs = table
		eng, err := New(newPAPI(), model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], err = eng.RunContinuous(reqs, 8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("warm cost table changed the result")
	}
}

// TestCostTableRejectsRebinding pins the guard against silently serving one
// system's prices to another.
func TestCostTableRejectsRebinding(t *testing.T) {
	table := NewCostTable()
	opt := DefaultOptions(1)
	opt.Costs = table
	if _, err := New(newPAPI(), model.OPT30B(), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := New(newA100AttAcc(), model.OPT30B(), opt); err == nil {
		t.Fatal("cost table accepted a second system design")
	}
	if _, err := New(newPAPI(), model.LLaMA65B(), opt); err == nil {
		t.Fatal("cost table accepted a second model")
	}
}

// TestStepAllocations is the allocation regression test on Stepper.Step: a
// macro-stepped static drain must average well under one allocation per
// committed token, and at least 10× fewer than the reference path on the
// same workload.
func TestStepAllocations(t *testing.T) {
	reqs := workload.CreativeWriting().Generate(16, 1)
	measure := func(mode FastPathMode) float64 {
		opt := DefaultOptions(1)
		opt.FastPath = mode
		eng, err := New(newPAPI(), model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			st, err := eng.NewBatchStepper(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for {
				info, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				if info.Kind == StepDrained {
					break
				}
			}
			st.Finalize()
		})
	}
	fast := measure(FastPathOn)
	ref := measure(FastPathOff)
	// The whole drained run — thousands of iterations — must stay within a
	// fixed allocation budget: traces, tracker entries and stepper setup,
	// nothing per-iteration.
	const budget = 120
	if fast > budget {
		t.Errorf("fast-path drain allocated %.0f times, want ≤ %d", fast, budget)
	}
	if ref < 10*fast {
		t.Errorf("allocation regression: reference %.0f, fast %.0f — want ≥ 10× reduction", ref, fast)
	}
}

// TestKVDemandIncremental pins the O(1) KVDemand against a fresh walk over
// the outstanding requests as the batch admits, decodes and drains.
func TestKVDemandIncremental(t *testing.T) {
	opt := DefaultOptions(1)
	eng, err := New(newPAPI(), model.OPT30B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.NewStreamStepper(workload.GeneralQA().Poisson(10, 50, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(workload.Request{ID: 99, InputLen: 64, OutputLen: 32, Arrival: 0.01}); err != nil {
		t.Fatal(err)
	}
	walk := func() float64 {
		var need float64
		for _, r := range st.active {
			need += float64(eng.Cfg.KVBytes(r.SeqLen()))
		}
		for _, r := range st.pending {
			need += float64(eng.Cfg.KVBytes(r.SeqLen()))
		}
		return need
	}
	for i := 0; ; i++ {
		if got, want := float64(st.KVDemand()), walk(); got != want {
			t.Fatalf("step %d: KVDemand = %v, walk = %v", i, got, want)
		}
		info, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind == StepDrained {
			break
		}
	}
	if st.KVDemand() != 0 {
		t.Fatalf("drained stepper reports KV demand %v", st.KVDemand())
	}
}
