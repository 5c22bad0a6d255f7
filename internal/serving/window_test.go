package serving

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// The window matrix is the other half of the decode path's contract (the
// pricing property in pricing_test.go is the first): a free-running Stepper
// — the fast path, whose windows fast-forward whole runs of identical-RLP
// iterations — must reproduce the same Stepper driven one iteration per Step — times, energy
// ledger, traces, per-request metrics, KV statistics — bit for bit. The
// one-iteration drive needs no switch: a horizon at the clock ends every
// window after its first iteration, so SetHorizon(Now()) before each Step
// is the reference (the same trick the fleet's time-order reference driver
// uses).

// drive runs st to drain and returns its Result and the number of Step
// calls. With oneIteration every Step runs exactly one iteration. The
// incremental totals (ΣkvLen, KV demand, class counters) are recomputed
// from scratch after every Step.
func drive(t *testing.T, st *Stepper, oneIteration bool) (Result, int, error) {
	t.Helper()
	steps := 0
	for st.HasWork() {
		if oneIteration {
			st.SetHorizon(st.Now())
		}
		steps++
		if _, err := st.Step(); err != nil {
			return Result{}, steps, err
		}
		checkStepInvariants(t, st)
	}
	return st.Finalize(), steps, nil
}

// windowKind is the matrix's batching axis.
type windowKind int

const (
	windowStatic windowKind = iota // one prefilled batch, no admission
	windowStream                   // single-class continuous batching
	windowTiered                   // both priority classes, with preemption
)

func (w windowKind) String() string {
	return [...]string{"static", "stream", "tiered"}[w]
}

// windowDesigns is the matrix's design axis: the five registry designs and
// the single-device attention pool the kvcache figure and the chat-kv
// benchmark run, whose tight KV pool makes admission block.
func windowDesigns() []design.Spec {
	oneStack := design.PAPI(0)
	oneStack.Name = "PAPI-1stack"
	oneStack.AttnPIM = design.HBMPIMPool(1)
	return append(design.Registry(), oneStack)
}

// windowWorkload draws a row's requests and admission cap. Every stream
// carries prefix groups, which only the block store reads. The tiered
// stream opens with a batch-class backlog sized to fill the design's KV
// pool, so the first interactive arrivals can only be admitted by
// preemption, and continues with Poisson mixed-class traffic whose
// class-boundary events bound the windows.
func windowWorkload(w windowKind, sys *design.System, cfg model.Config) ([]workload.Request, int) {
	doc := workload.LengthDist{Median: 96, Sigma: 0.4, Min: 32, Max: 256}
	switch w {
	case windowStatic:
		return workload.AssignPrefixGroups(workload.GeneralQA().Generate(8, 7), 3, doc, 0.5, 8), 8
	case windowStream:
		return workload.AssignPrefixGroups(workload.GeneralQA().Poisson(16, 25, 11), 3, doc, 0.5, 12), 6
	}
	per := int(sys.KVCapacity().Bytes()/cfg.KVBytes(1).Bytes()) / 3
	var reqs []workload.Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, workload.Request{ID: i, InputLen: per - 80, OutputLen: 48,
			Class: workload.ClassBatch})
	}
	mixed := workload.AssignClasses(workload.GeneralQA().Poisson(20, 60, 13), 0.5, 14)
	for i, r := range workload.AssignPrefixGroups(mixed, 3, doc, 0.5, 15) {
		r.ID = len(reqs) + i
		reqs = append(reqs, r)
	}
	return reqs, 6
}

// The matrix runs design × model × TLP {1, 4} × {static, stream, tiered} ×
// KV {byte ledger, block store} × {unperturbed, perturbed}, split by
// batching mode and KV regime across the four tests below. The tiered ×
// block store rows are the regime whose windows fall back to one iteration
// (macroArrivalBound returns the clock); every other row must take fewer
// Steps free-running. Every tiered row must preempt, so the class-boundary
// and preemption bounds are exercised, not just present; and a perturbed
// row must run slower than its unperturbed twin.

func TestFastPathEquivalenceStatic(t *testing.T) { windowMatrix(t, false, windowStatic) }

func TestFastPathEquivalenceStream(t *testing.T) { windowMatrix(t, false, windowStream) }

func TestFastPathEquivalenceTiered(t *testing.T) { windowMatrix(t, false, windowTiered) }

// TestKVSharingFastPathEquivalence runs the block-store rows: block
// adoption, tier transfers and re-prefill accounting must split into
// windows exactly as the byte ledger's runs do.
func TestKVSharingFastPathEquivalence(t *testing.T) {
	windowMatrix(t, true, windowStatic, windowStream, windowTiered)
}

// windowMatrix runs every design × model × TLP × perturbation row of the
// given batching modes on one KV regime.
func windowMatrix(t *testing.T, block bool, kinds ...windowKind) {
	rows := 0
	for _, spec := range windowDesigns() {
		for _, cfg := range model.All() {
			for _, tlp := range []int{1, 4} {
				for _, w := range kinds {
					var plain Result
					for _, perturbed := range []bool{false, true} {
						row := fmt.Sprintf("%s/%s/tlp%d/%s/%s/%s", spec.Name, cfg.Name, tlp, w,
							map[bool]string{false: "ledger", true: "block"}[block],
							map[bool]string{false: "plain", true: "perturbed"}[perturbed])
						res, ok := windowRow(t, row, spec, cfg, tlp, w, block, perturbed)
						if !ok {
							continue
						}
						rows++
						if !perturbed {
							plain = res
						} else if res.DecodeTime <= plain.DecodeTime {
							t.Errorf("%s: perturbed decode %v not slower than unperturbed %v",
								row, res.DecodeTime, plain.DecodeTime)
						}
					}
				}
			}
		}
	}
	if want := len(windowDesigns()) * len(model.All()) * 2 * len(kinds) * 2; rows != want {
		t.Fatalf("ran %d matrix rows, want %d", rows, want)
	}
}

// windowRow runs one matrix row both ways and reports its free-running
// Result; ok is false when the row failed.
func windowRow(t *testing.T, row string, spec design.Spec, cfg model.Config, tlp int,
	w windowKind, block, perturbed bool) (res Result, ok bool) {
	t.Helper()
	var results [2]Result
	var steps [2]int
	for i, oneIteration := range []bool{false, true} {
		opt := DefaultOptions(tlp)
		if block {
			opt.KV = &kv.Options{BlockTokens: 32, Sharing: true}
		}
		sys := design.MustBuild(spec)
		eng, err := New(sys, cfg, opt)
		if err != nil {
			t.Errorf("%s: %v", row, err)
			return Result{}, false
		}
		reqs, maxBatch := windowWorkload(w, sys, cfg)
		var st *Stepper
		if w == windowStatic {
			st, err = eng.NewBatchStepper(reqs)
		} else {
			st, err = eng.NewStreamStepper(reqs, maxBatch)
		}
		if err != nil {
			t.Errorf("%s: %v", row, err)
			return Result{}, false
		}
		if perturbed {
			st.SetPerturbation(Perturbation{Slow: 1.6, Attn: 1.8})
		}
		results[i], steps[i], err = drive(t, st, oneIteration)
		if err != nil {
			t.Errorf("%s (one iteration %v): %v", row, oneIteration, err)
			return Result{}, false
		}
		checkResultInvariants(t, reqs, results[i])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("%s: free-running windows diverged from one-iteration stepping\n free: %+v\n  one: %+v",
			row, results[0], results[1])
		return Result{}, false
	}
	if fallback := w == windowTiered && block; !fallback && steps[0] >= steps[1] {
		t.Errorf("%s: free-running took %d Steps, one-iteration %d: no window ran more than one iteration",
			row, steps[0], steps[1])
	}
	if w == windowTiered && results[0].Preemptions == 0 {
		t.Errorf("%s: tiered stream triggered no preemptions — the preemption bound is untested", row)
	}
	return results[0], true
}

// TestQuietUntilSound pins QuietUntil's contract — no iteration that starts
// before the bound finishes a request — over the window matrix's stream
// configurations: design × model × TLP {1, 4} × {stream, tiered} × KV
// {byte ledger, block store} × {unperturbed, perturbed}. Every row runs one
// iteration per Step and keeps the latest bound taken since the last finish
// (bounds hold until a finish, absent pushes); a finishing iteration of time
// t that ends at e started at or after that bound q only if q + t ≤ e,
// which rounded addition's monotonicity makes exact. A row whose bounds
// never reach past the clock would pin nothing, so the test also requires
// the bound to skip ahead.
func TestQuietUntilSound(t *testing.T) {
	rows, ahead := 0, 0
	for _, spec := range windowDesigns() {
		for _, cfg := range model.All() {
			for _, tlp := range []int{1, 4} {
				for _, w := range []windowKind{windowStream, windowTiered} {
					for _, block := range []bool{false, true} {
						for _, perturbed := range []bool{false, true} {
							row := fmt.Sprintf("%s/%s/tlp%d/%s/block=%v/perturbed=%v",
								spec.Name, cfg.Name, tlp, w, block, perturbed)
							opt := DefaultOptions(tlp)
							if block {
								opt.KV = &kv.Options{BlockTokens: 32, Sharing: true}
							}
							sys := design.MustBuild(spec)
							eng, err := New(sys, cfg, opt)
							if err != nil {
								t.Fatalf("%s: %v", row, err)
							}
							reqs, maxBatch := windowWorkload(w, sys, cfg)
							st, err := eng.NewStreamStepper(reqs, maxBatch)
							if err != nil {
								t.Fatalf("%s: %v", row, err)
							}
							if perturbed {
								st.SetPerturbation(Perturbation{Slow: 1.6, Attn: 1.8})
							}
							rows++
							quiet := units.Seconds(math.Inf(-1))
							for st.HasWork() {
								q := st.QuietUntil()
								if q > st.Now() {
									ahead++
								}
								quiet = max(quiet, q)
								st.SetHorizon(st.Now())
								finished, err := st.Step()
								if err != nil {
									t.Fatalf("%s: %v", row, err)
								}
								if len(finished) == 0 {
									continue
								}
								// The Step ran one iteration, the trace's last entry.
								if n := len(st.res.IterStats); n != st.res.Iterations {
									t.Fatalf("%s: %d iterations overflow the %d-entry trace", row, st.res.Iterations, n)
								}
								iter := st.res.IterStats[len(st.res.IterStats)-1].Time
								if end := st.Now(); quiet+iter > end {
									t.Fatalf("%s: a request finished in an iteration of %v ending at %v, before the quiet bound %v",
										row, iter, end, quiet)
								}
								quiet = units.Seconds(math.Inf(-1))
							}
						}
					}
				}
			}
		}
	}
	if want := len(windowDesigns()) * len(model.All()) * 2 * 2 * 2 * 2; rows != want {
		t.Fatalf("ran %d rows, want %d", rows, want)
	}
	if ahead == 0 {
		t.Fatal("no quiet bound ever reached past the clock: the property is vacuous")
	}
}

// FuzzMacroEquivalence searches the window configuration space — TLP 1–4,
// randomized class mixes, admission caps, arrival rates, caller horizon
// schedules (the cluster driver's SetHorizon cadence), block-store sharing
// and a straggler perturbation — for an input on which free-running
// windows split from one-iteration stepping.
func FuzzMacroEquivalence(f *testing.F) {
	f.Add(int64(3), byte(0), byte(2), byte(3), byte(12), false, false, false)
	f.Add(int64(11), byte(3), byte(1), byte(0), byte(40), false, false, false)
	f.Add(int64(29), byte(1), byte(4), byte(6), byte(3), true, false, false)
	f.Add(int64(101), byte(2), byte(3), byte(2), byte(0), false, false, false)
	f.Add(int64(57), byte(0), byte(2), byte(1), byte(7), false, true, false)
	f.Add(int64(83), byte(3), byte(3), byte(4), byte(0), false, true, true)
	f.Fuzz(func(t *testing.T, seed int64, tlpPick, classPick, batchPick, horizPick byte,
		static, sharing, perturbed bool) {
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
		doc := workload.LengthDist{Median: 96, Sigma: 0.4, Min: 32, Max: 256}
		reqs = workload.AssignPrefixGroups(reqs, 3, doc, 0.5, seed+2)
		// 0 disables the horizon schedule; otherwise the caller re-arms a
		// fresh bound every delta seconds, like the cluster kernel would.
		delta := units.Seconds(float64(horizPick%50) * 1e-3)

		run := func(oneIteration bool) Result {
			opt := DefaultOptions(tlp)
			opt.Seed = seed
			if sharing {
				opt.KV = &kv.Options{BlockTokens: 16, Sharing: true}
			}
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
			if perturbed {
				st.SetPerturbation(Perturbation{Slow: 2})
			}
			horizon := delta
			for st.HasWork() {
				switch {
				case oneIteration:
					st.SetHorizon(st.Now())
				case delta > 0:
					for st.Now() >= horizon {
						horizon += delta
					}
					st.SetHorizon(horizon)
				}
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return st.Finalize()
		}
		free, one := run(false), run(true)
		if !reflect.DeepEqual(free, one) {
			t.Fatalf("window diverged (seed=%d tlp=%d frac=%.2f maxBatch=%d delta=%v static=%v sharing=%v perturbed=%v)\n free: %+v\n  one: %+v",
				seed, tlp, batchFrac, maxBatch, delta, static, sharing, perturbed, free, one)
		}
	})
}

// TestStepAllocations is the allocation regression test on Stepper.Step.
// A static drain — thousands of iterations in a handful of windows — must
// stay within a fixed allocation budget. A constant-memory stream fed the way
// a fleet replica is fed, each request pushed at its arrival, must stay
// within a budget per request: a completed request's record, and under a
// block store its lease, serve a later request, and Step hands completions
// out in a buffer it reuses.
func TestStepAllocations(t *testing.T) {
	drain := func(newStepper func() (*Stepper, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			st, err := newStepper()
			if err != nil {
				t.Fatal(err)
			}
			for st.HasWork() {
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
			st.Finalize()
		})
	}

	reqs := workload.CreativeWriting().Generate(16, 1)
	eng, err := New(newPAPI(), model.OPT30B(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	// Traces, records and stepper setup, nothing per iteration: 32 at the
	// time of writing.
	const budget = 36
	if allocs := drain(func() (*Stepper, error) { return eng.NewBatchStepper(reqs) }); allocs > budget {
		t.Errorf("static drain allocated %.0f times, want ≤ %d", allocs, budget)
	}

	feed := func(eng *Engine, stream []workload.Request) float64 {
		return testing.AllocsPerRun(5, func() {
			st, err := eng.NewStreamStepper(nil, 8)
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, st, stream, nil)
			st.Finalize()
		})
	}
	// At 10 requests/s a batch of 8 keeps up, so few requests are ever
	// outstanding at once. What is left is stepper setup, the records and
	// leases of the most requests ever outstanding, and a reused lease's
	// buffers growing for a longer context: 19 and 188 allocations at the
	// time of writing, against 265 and 1105 when every request took a fresh
	// record and lease. Batch-class traffic leaves the queue from its head,
	// and the queue must reuse the slot that frees: 19 allocations for
	// either tiered stream, against 88 (35 % batch-class) and 273 (all
	// batch-class) when the head was re-sliced away for good and every later
	// insert reallocated.
	stream := workload.GeneralQA().Poisson(256, 10, 5)
	tiered := workload.AssignClasses(workload.GeneralQA().Poisson(256, 10, 5), 0.35, 6)
	batch := workload.AssignClasses(workload.GeneralQA().Poisson(256, 10, 5), 1, 6)
	shared := workload.AssignPrefixGroups(workload.GeneralQA().Poisson(256, 10, 5), 3,
		workload.LengthDist{Median: 96, Sigma: 0.4, Min: 32, Max: 256}, 0.5, 6)
	for _, tc := range []struct {
		name       string
		tlp        int
		kv         *kv.Options
		stream     []workload.Request
		perRequest float64
	}{
		{"byte ledger", 1, nil, stream, 0.1},
		{"35 % batch-class", 1, nil, tiered, 0.1},
		{"batch-class", 1, nil, batch, 0.1},
		{"block store", 4, &kv.Options{BlockTokens: 32, Sharing: true}, shared, 0.875},
	} {
		opt := DefaultOptions(tc.tlp)
		opt.DiscardCompleted, opt.KV = true, tc.kv
		lean, err := New(newPAPI(), model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		allocs := feed(lean, tc.stream)
		if budget := tc.perRequest * float64(len(tc.stream)); allocs > budget {
			t.Errorf("constant-memory %s stream of %d requests allocated %.0f times, want ≤ %.0f",
				tc.name, len(tc.stream), allocs, budget)
		}
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
	for i := 0; st.HasWork(); i++ {
		if got, want := float64(st.KVDemand()), walk(); got != want {
			t.Fatalf("step %d: KVDemand = %v, walk = %v", i, got, want)
		}
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st.KVDemand() != 0 {
		t.Fatalf("drained stepper reports KV demand %v", st.KVDemand())
	}
}
