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

// sumIterTokens adds up the per-iteration committed counts in the trace.
func sumIterTokens(res Result) int {
	sum := 0
	for _, it := range res.IterStats {
		sum += it.Tokens
	}
	return sum
}

func TestIterStatsTokensSumBatch(t *testing.T) {
	// Regression: IterationStat.Tokens used to stay 0 in both batch modes.
	// With fewer iterations than the trace cap, the per-iteration counts
	// must account for every generated token.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(4))
	res, err := e.RunBatch(fixedBatch(8, 64, 48))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterStats) != res.Iterations {
		t.Fatalf("trace has %d entries for %d iterations", len(res.IterStats), res.Iterations)
	}
	if got := sumIterTokens(res); got != res.Tokens || got == 0 {
		t.Fatalf("sum(IterStats.Tokens) = %d, want Result.Tokens = %d", got, res.Tokens)
	}
}

func TestIterStatsTokensSumContinuous(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	res, err := e.RunContinuous(workload.GeneralQA().Poisson(24, 50, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumIterTokens(res); got != res.Tokens || got == 0 {
		t.Fatalf("sum(IterStats.Tokens) = %d, want Result.Tokens = %d", got, res.Tokens)
	}
}

func TestBatchStepperMatchesRunBatch(t *testing.T) {
	// Driving the stepper by hand is the same computation as RunBatch.
	cfg := model.LLaMA65B()
	reqs := workload.CreativeWriting().Generate(8, 9)

	ref := mustEngine(t, newPAPI(), cfg, DefaultOptions(4))
	want, err := ref.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}

	e := mustEngine(t, newPAPI(), cfg, DefaultOptions(4))
	st, err := e.NewBatchStepper(reqs)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for st.HasWork() {
		iters := st.res.Iterations
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
		if st.res.Iterations == iters {
			t.Fatalf("static stepper step %d ran no iteration", steps)
		}
		steps++
	}
	got := st.Finalize()
	if got.DecodeTime != want.DecodeTime || got.Tokens != want.Tokens ||
		got.Iterations != want.Iterations || got.Reschedules != want.Reschedules {
		t.Fatalf("stepper diverged from RunBatch:\n got %v/%d tokens/%d iters\nwant %v/%d tokens/%d iters",
			got.DecodeTime, got.Tokens, got.Iterations, want.DecodeTime, want.Tokens, want.Iterations)
	}
	// Macro-stepping may cover many iterations per Step (a TLP = 4 batch
	// finishes requests in bursts, ending each window), but never more
	// steps than iterations — and a whole batch never drains in one window,
	// since every finish closes it.
	if steps > want.Iterations || steps < 2 {
		t.Fatalf("stepper took %d steps for %d iterations", steps, want.Iterations)
	}
	if got.Energy.Total() != want.Energy.Total() {
		t.Fatalf("energy diverged: %v vs %v", got.Energy.Total(), want.Energy.Total())
	}
}

func TestStreamStepperMatchesRunContinuous(t *testing.T) {
	cfg := model.LLaMA65B()
	reqs := workload.GeneralQA().Poisson(24, 40, 7)

	ref := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	want, err := ref.RunContinuous(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}

	e := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	st, err := e.NewStreamStepper(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for st.HasWork() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Finalize()
	if got.DecodeTime != want.DecodeTime || got.Tokens != want.Tokens ||
		got.Iterations != want.Iterations || got.IdleTime != want.IdleTime {
		t.Fatalf("stepper diverged from RunContinuous:\n got %+v\nwant %+v", got.Iterations, want.Iterations)
	}
}

func TestStreamStepperPush(t *testing.T) {
	// Cluster-style use: an empty stream stepper fed by Push at arrival
	// instants, idling via AdvanceTo between them.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	st, err := e.NewStreamStepper(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasWork() {
		t.Fatal("fresh empty stepper should report no work")
	}
	if err := st.Push(workload.Request{ID: 0, InputLen: 32, OutputLen: 4}); err != nil {
		t.Fatal(err)
	}
	if st.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", st.Outstanding())
	}
	for st.HasWork() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// A second request arrives well after the first finished.
	at := st.Now() + units.Seconds(2)
	if err := st.Push(workload.Request{ID: 1, InputLen: 32, OutputLen: 4, Arrival: at}); err != nil {
		t.Fatal(err)
	}
	st.AdvanceTo(at)
	for st.HasWork() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := st.Finalize()
	if res.Tokens != 8 {
		t.Fatalf("tokens = %d, want 8", res.Tokens)
	}
	if res.IdleTime < units.Seconds(1.5) {
		t.Fatalf("idle time = %v, want ≈2 s gap accounted", res.IdleTime)
	}
	if len(res.Requests) != 2 {
		t.Fatalf("metrics for %d requests, want 2", len(res.Requests))
	}
	// The late request's latency is arrival-relative.
	if res.Requests[1].TTFT > units.Seconds(1) {
		t.Fatalf("pushed request TTFT %v should be arrival-relative", res.Requests[1].TTFT)
	}
}

func TestStepperMisuse(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	if _, err := e.NewStreamStepper(nil, 0); err == nil {
		t.Error("non-positive max batch should fail")
	}
	st, err := e.NewBatchStepper(fixedBatch(2, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(workload.Request{ID: 9, InputLen: 8, OutputLen: 2}); err == nil {
		t.Error("pushing into a static batch stepper should fail")
	}
	ss, err := e.NewStreamStepper(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Push(workload.Request{ID: 0, InputLen: 0, OutputLen: 2}); err == nil {
		t.Error("pushing a zero-length request should fail")
	}
}

// TestQueueReclaimsItsFront: requests leaving the queue's head free slots
// in front of it, which a later push moves the queue back into. Holding
// five requests queued while pushing two and cancelling the two oldest,
// over and over, must keep the queue in arrival order and leave no request
// in a buffer slot outside it.
func TestQueueReclaimsItsFront(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.OPT30B(), DefaultOptions(1))
	st, err := e.NewStreamStepper(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	push := func() {
		id := len(want)
		if err := st.Push(workload.Request{ID: id, Arrival: units.Seconds(id), InputLen: 16, OutputLen: 4}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	for range 5 {
		push()
	}
	head := 0
	for round := 0; round < 100; round++ {
		push()
		push()
		for range 2 {
			if _, ok, err := st.Cancel(want[head]); !ok || err != nil {
				t.Fatalf("round %d: cancelling the head %d: ok %v, err %v", round, want[head], ok, err)
			}
			head++
		}
		checkStepInvariants(t, st)
		for i, r := range st.pending {
			if r.ID != want[head+i] {
				t.Fatalf("round %d: pending[%d] is request %d, want %d", round, i, r.ID, want[head+i])
			}
		}
	}
}

// TestStepperRejectsPrefixOutsideInput: a declared shared prefix must lie
// within the request's input. Push and both constructors refuse one outside
// [0, InputLen] with an error, on the byte ledger and under a sharing block
// store, whose prefix walk covers only the sequence's reserved blocks.
func TestStepperRejectsPrefixOutsideInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   *kv.Options
	}{
		{"byte ledger", nil},
		{"block store", &kv.Options{BlockTokens: 32, Sharing: true}},
	} {
		opt := DefaultOptions(1)
		opt.KV = tc.kv
		e := mustEngine(t, newPAPI(), model.LLaMA65B(), opt)
		// Past the input by one token, and past the whole sequence.
		for _, prefix := range []int{-1, 129, 128 + 16 + 64} {
			r := workload.Request{ID: 3, InputLen: 128, OutputLen: 16, PrefixGroup: 7, PrefixLen: prefix}
			ss, err := e.NewStreamStepper(nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := ss.Push(r); err == nil {
				t.Errorf("%s: Push with prefix %d should fail", tc.name, prefix)
			}
			if _, err := e.NewStreamStepper([]workload.Request{r}, 2); err == nil {
				t.Errorf("%s: NewStreamStepper with prefix %d should fail", tc.name, prefix)
			}
			if _, err := e.NewBatchStepper([]workload.Request{r}); err == nil {
				t.Errorf("%s: NewBatchStepper with prefix %d should fail", tc.name, prefix)
			}
		}
	}
}

func TestStepInfoFinishedReportsCompletions(t *testing.T) {
	// The requests Step returns are the completion hook closed-loop arrival
	// owners build on: every request must appear exactly once, in the step
	// that took it off the replica's outstanding count.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := workload.GeneralQA().Poisson(12, 50, 5)
	s, err := e.NewStreamStepper(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for s.HasWork() {
		before := s.Outstanding()
		finished, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done := before - s.Outstanding(); len(finished) != done {
			t.Fatalf("step finished %d requests but lists %d", done, len(finished))
		}
		for _, c := range finished {
			r := c.Request
			if seen[r.ID] {
				t.Fatalf("request %d finished twice", r.ID)
			}
			seen[r.ID] = true
			if r.InputLen <= 0 || r.OutputLen <= 0 {
				t.Fatalf("finished request %d lost its lengths: %+v", r.ID, r)
			}
			if c.Metrics.ID != r.ID || c.Metrics.OutputTokens != r.OutputLen {
				t.Fatalf("request %d finished with the record %+v", r.ID, c.Metrics)
			}
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("finished %d of %d requests", len(seen), len(reqs))
	}
}

// TestDiscardCompletedDrops pins what the constant-memory mode
// (Options.DiscardCompleted) drops, and that it drops nothing else, over the
// window matrix's rows the fleet and figure workloads run: PAPI and
// PAPI-1stack × TLP {1, 4} × {static, stream, tiered} × KV {byte ledger,
// block store}. Retaining or not, a stepper hands out every request once,
// in the Step that finished it, with the record a retaining one lists in
// Result.Requests — for a static batch, RunBatch's. A discarding stream
// stepper records no per-iteration trace, and its Result deep-equals the
// retaining one's once those three fields are cleared; a static stepper
// ignores the option.
func TestDiscardCompletedDrops(t *testing.T) {
	cfg := model.OPT30B()
	rows := 0
	for _, spec := range windowDesigns() {
		if spec.Name != design.DesignPAPI && spec.Name != "PAPI-1stack" {
			continue
		}
		for _, tlp := range []int{1, 4} {
			for _, w := range []windowKind{windowStatic, windowStream, windowTiered} {
				for _, block := range []bool{false, true} {
					row := fmt.Sprintf("%s/tlp%d/%s/block=%v", spec.Name, tlp, w, block)
					engine := func(discard bool) (*Engine, []workload.Request, int) {
						opt := DefaultOptions(tlp)
						opt.DiscardCompleted = discard
						if block {
							opt.KV = &kv.Options{BlockTokens: 32, Sharing: true}
						}
						sys := design.MustBuild(spec)
						reqs, maxBatch := windowWorkload(w, sys, cfg)
						return mustEngine(t, sys, cfg, opt), reqs, maxBatch
					}
					run := func(discard bool) (Result, map[int]RequestMetrics) {
						eng, reqs, maxBatch := engine(discard)
						var st *Stepper
						var err error
						if w == windowStatic {
							st, err = eng.NewBatchStepper(reqs)
						} else {
							st, err = eng.NewStreamStepper(reqs, maxBatch)
						}
						if err != nil {
							t.Fatalf("%s: %v", row, err)
						}
						handed := drainHanded(t, st)
						return st.Finalize(), handed
					}
					full, fullHanded := run(false)
					lean, leanHanded := run(true)
					rows++
					eng, reqs, _ := engine(false)
					want := full.Requests
					if w == windowStatic {
						ref, err := eng.RunBatch(reqs)
						if err != nil {
							t.Fatalf("%s: %v", row, err)
						}
						want = ref.Requests
					}
					if len(want) != len(reqs) {
						t.Errorf("%s: %d records for %d requests", row, len(want), len(reqs))
					}
					for mode, handed := range map[string]map[int]RequestMetrics{"retaining": fullHanded, "discarding": leanHanded} {
						if len(handed) != len(want) {
							t.Errorf("%s: the %s stepper handed out %d records, want %d", row, mode, len(handed), len(want))
						}
						for _, rm := range want {
							if got, ok := handed[rm.ID]; !ok || got != rm {
								t.Errorf("%s: the %s stepper handed request %d out as %+v, want %+v", row, mode, rm.ID, got, rm)
							}
						}
					}
					if w == windowStatic {
						if !reflect.DeepEqual(full, lean) {
							t.Errorf("%s: a static stepper changed under DiscardCompleted\n retain: %+v\ndiscard: %+v",
								row, full, lean)
						}
						continue
					}
					if len(full.IterStats) == 0 || len(full.RLPTrace) == 0 {
						t.Errorf("%s: the retaining run recorded no trace", row)
					}
					if cap(lean.RLPTrace) != 0 || cap(lean.IterStats) != 0 {
						t.Errorf("%s: discarding run holds traces of capacity %d and %d",
							row, cap(lean.RLPTrace), cap(lean.IterStats))
					}
					for _, res := range []*Result{&full, &lean} {
						res.Requests, res.RLPTrace, res.IterStats = nil, nil, nil
					}
					if !reflect.DeepEqual(full, lean) {
						t.Errorf("%s: discarding changed more than the records and traces\n retain: %+v\ndiscard: %+v",
							row, full, lean)
					}
				}
			}
		}
	}
	if rows != 24 {
		t.Fatalf("ran %d rows, want 24", rows)
	}
}

// drainHanded drives st to drain and collects every record Step hands out,
// by ID, failing on a repeat.
// TestReusedRecordsStartClean: a discarding stream stepper serves a later
// request in the record, and under a block store the lease, of one that
// finished, preempted ones included. Two waves of a window-matrix stream,
// the second pushed an hour after the first, must be served exactly as a
// retaining stepper, which reuses nothing, serves them: the same records
// handed out, and the same Result but for the records and traces.
func TestReusedRecordsStartClean(t *testing.T) {
	cfg := model.OPT30B()
	sys := design.MustBuild(windowDesigns()[len(windowDesigns())-1])
	for _, w := range []windowKind{windowStream, windowTiered} {
		wave, maxBatch := windowWorkload(w, sys, cfg)
		reqs := append([]workload.Request(nil), wave...)
		for _, r := range wave {
			r.ID += 1000
			r.Arrival += 3600
			reqs = append(reqs, r)
		}
		for _, tlp := range []int{1, 4} {
			for _, block := range []bool{false, true} {
				row := fmt.Sprintf("%s/tlp%d/block=%v", w, tlp, block)
				run := func(discard bool) (Result, map[int]RequestMetrics) {
					opt := DefaultOptions(tlp)
					opt.DiscardCompleted = discard
					if block {
						opt.KV = &kv.Options{BlockTokens: 32, Sharing: true}
					}
					st, err := mustEngine(t, sys, cfg, opt).NewStreamStepper(nil, maxBatch)
					if err != nil {
						t.Fatal(err)
					}
					handed := map[int]RequestMetrics{}
					pushAll(t, st, reqs, func(done []Completion) {
						for _, c := range done {
							handed[c.Request.ID] = c.Metrics
						}
					})
					res := st.Finalize()
					res.Requests, res.RLPTrace, res.IterStats = nil, nil, nil
					return res, handed
				}
				full, fullHanded := run(false)
				lean, leanHanded := run(true)
				if w == windowTiered && full.Preemptions == 0 {
					t.Fatalf("%s: the waves preempted nothing", row)
				}
				if !reflect.DeepEqual(fullHanded, leanHanded) || len(leanHanded) != len(reqs) {
					t.Errorf("%s: records diverged across reuse:\n retain: %+v\n reuse:  %+v", row, fullHanded, leanHanded)
				}
				if !reflect.DeepEqual(full, lean) {
					t.Errorf("%s: results diverged across reuse:\n retain: %+v\n reuse:  %+v", row, full, lean)
				}
			}
		}
	}
}

// pushAll feeds reqs, in arrival order, to a stream stepper the way a fleet
// replica is fed: each request is pushed at its arrival, after the stepper
// stepped up to it, and the stepper then drains. Every Step's completions go
// to done when it is not nil.
func pushAll(t *testing.T, st *Stepper, reqs []workload.Request, done func([]Completion)) {
	t.Helper()
	step := func() {
		c, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done != nil {
			done(c)
		}
	}
	for _, r := range reqs {
		st.SetHorizon(r.Arrival)
		for st.HasWork() && st.Now() < r.Arrival {
			step()
		}
		if err := st.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	st.SetHorizon(units.Seconds(math.Inf(1)))
	for st.HasWork() {
		step()
	}
}

func drainHanded(t *testing.T, st *Stepper) map[int]RequestMetrics {
	t.Helper()
	handed := map[int]RequestMetrics{}
	for st.HasWork() {
		done, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range done {
			if _, again := handed[c.Request.ID]; again {
				t.Fatalf("request %d handed out twice", c.Request.ID)
			}
			handed[c.Request.ID] = c.Metrics
		}
	}
	return handed
}
