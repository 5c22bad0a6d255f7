package serving

import (
	"math"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// This file pins the block-level KV cache's serving contract from both
// sides. With sharing off the engine builds no store: every Result must be
// bit-identical to the engine run with KV = nil, for every evaluated system,
// both batching modes and both TLP regimes — so turning the feature off
// really is the byte-ledger engine. With sharing on, the prefix index must
// measurably convert re-prefill work into block adoption
// (TestKVSharingFastPathEquivalence pins that sharing runs split into
// windows exactly as the byte ledger's do).

// kvWorkload draws a stream whose members share prefixes: half the requests
// are dealt across four prefix groups, the rest are private.
func kvWorkload(n int, rate float64, seed int64) []workload.Request {
	var reqs []workload.Request
	if rate == 0 {
		reqs = workload.GeneralQA().Generate(n, seed)
	} else {
		reqs = workload.GeneralQA().Poisson(n, rate, seed)
	}
	doc := workload.LengthDist{Median: 96, Sigma: 0.4, Min: 32, Max: 256}
	return workload.AssignPrefixGroups(reqs, 4, doc, 0.5, seed+1)
}

// runKV drives one full run with the given KV options (nil = no store).
func runKV(t *testing.T, newSys func() *design.System, tlp int,
	kvo *kv.Options, static bool, reqs []workload.Request) Result {
	t.Helper()
	opt := DefaultOptions(tlp)
	opt.KV = kvo
	eng, err := New(newSys(), model.OPT30B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if static {
		res, err = eng.RunBatch(reqs)
	} else {
		res, err = eng.RunContinuous(reqs, 6)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKVSharingOffEquivalence is the sharing-off pin: KV options with
// sharing off must not move a single bit of the Result relative to KV = nil,
// across every system, mode and TLP — including on prefix-tagged streams,
// whose tags the byte ledger must ignore.
func TestKVSharingOffEquivalence(t *testing.T) {
	static := kvWorkload(10, 0, 7)
	stream := kvWorkload(12, 25, 11)
	off := &kv.Options{BlockTokens: 32, Sharing: false}
	for _, spec := range design.Registry() {
		newSys := func() *design.System { return design.MustBuild(spec) }
		for _, tlp := range []int{1, 4} {
			for _, isStatic := range []bool{true, false} {
				reqs := stream
				if isStatic {
					reqs = static
				}
				bare := runKV(t, newSys, tlp, nil, isStatic, reqs)
				unshared := runKV(t, newSys, tlp, off, isStatic, reqs)
				if !reflect.DeepEqual(bare, unshared) {
					t.Errorf("%s tlp=%d static=%v: sharing-off KV options changed the Result\n bare: %+v\n  off: %+v",
						spec.Name, tlp, isStatic, bare, unshared)
				}
			}
		}
	}
}

// TestKVOptionsValidatedWithoutSharing: sharing off builds no store, but the
// options are still checked, so a bad configuration errors instead of being
// ignored because nothing reads it.
func TestKVOptionsValidatedWithoutSharing(t *testing.T) {
	reqs := workload.GeneralQA().Generate(2, 1)
	for _, kvo := range []kv.Options{
		{BlockTokens: -1},
		{ColdFactor: math.NaN()},
	} {
		opt := DefaultOptions(1)
		opt.KV = &kvo
		eng, err := New(newPAPI(), model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.NewStreamStepper(nil, 4); err == nil {
			t.Errorf("stream stepper accepted sharing-off KV options %+v", kvo)
		}
		if _, err := eng.RunBatch(reqs); err == nil {
			t.Errorf("static batch accepted sharing-off KV options %+v", kvo)
		}
	}
}

// TestKVSharingReducesPrefill is the headline property: on a prefix-heavy
// stream, sharing must adopt blocks (index hits) and strictly cut both the
// prefilled and the re-prefilled token counts versus the same stream with
// sharing off.
func TestKVSharingReducesPrefill(t *testing.T) {
	reqs := kvWorkload(24, 30, 13)
	sys := newPAPI
	off := runKV(t, sys, 1, &kv.Options{BlockTokens: 32, Sharing: false}, false, reqs)
	on := runKV(t, sys, 1, &kv.Options{BlockTokens: 32, Sharing: true}, false, reqs)

	if off.KV != nil {
		t.Fatal("sharing-off Result carries KV stats")
	}
	if on.KV == nil {
		t.Fatal("sharing-on Result carries no KV stats")
	}
	if on.KV.Lookups == 0 || on.KV.Hits == 0 || on.KV.SharedTokens == 0 {
		t.Fatalf("prefix-heavy stream produced no index traffic: %+v", on.KV)
	}
	if on.PrefillTokens >= off.PrefillTokens {
		t.Fatalf("sharing did not cut prefill: on=%d off=%d", on.PrefillTokens, off.PrefillTokens)
	}
	if on.ReprefillTokens >= off.ReprefillTokens {
		t.Fatalf("sharing did not cut the re-prefill tax: on=%d off=%d", on.ReprefillTokens, off.ReprefillTokens)
	}
	if got := off.PrefillTokens - on.PrefillTokens; got != on.KV.SharedTokens {
		t.Fatalf("prefill saving %d != shared tokens %d", got, on.KV.SharedTokens)
	}
}

// TestKVConversationResume pins the conversation-carry path end to end: a
// follow-up turn declaring its conversation's grown context as prefix must
// adopt the committed blocks instead of re-prefilling them.
func TestKVConversationResume(t *testing.T) {
	group := int64(-1)
	first := workload.Request{ID: 1, InputLen: 96, OutputLen: 64, Turn: 1,
		PrefixGroup: group}
	carried := first.SeqLen()
	follow := workload.Request{ID: 2, InputLen: carried + 48, OutputLen: 32, Turn: 2,
		Arrival: units.Seconds(30), PrefixGroup: group, PrefixLen: carried}

	opt := DefaultOptions(1)
	opt.KV = &kv.Options{BlockTokens: 16, Sharing: true}
	eng, err := New(newPAPI(), model.OPT30B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContinuous([]workload.Request{first, follow}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The first turn grows its canonical chain through decode, so every full
	// block of the carried context — ⌊160/16⌋ = 10 blocks — is adoptable.
	if want := carried / 16 * 16; res.KV.SharedTokens != want {
		t.Fatalf("follow-up adopted %d tokens, want %d", res.KV.SharedTokens, want)
	}
	// Only the carried context's block-tail remainder is ever re-prefilled.
	if res.ReprefillTokens != carried%16 {
		t.Fatalf("re-prefill tax %d, want the %d-token tail", res.ReprefillTokens, carried%16)
	}
}

// TestKVParkResume pins preemption under sharing: evicted batch requests are
// parked — blocks demoted over the link, not discarded — and their
// re-admission promotes state back instead of re-prefilling it, strictly
// beating the discard-and-recompute regime on re-prefilled tokens.
func TestKVParkResume(t *testing.T) {
	// Saturate GPT-3 175B's pool with batch work, then force evictions with
	// interactive arrivals (the shape of TestStepperInvariantsUnderPreemption).
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
	run := func(kvo *kv.Options) Result {
		opt := DefaultOptions(1)
		opt.KV = kvo
		eng, err := New(newPAPI(), model.GPT3_175B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunContinuous(build(), 96)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(&kv.Options{BlockTokens: 32, Sharing: false})
	on := run(&kv.Options{BlockTokens: 32, Sharing: true})
	if off.Preemptions == 0 {
		t.Fatal("scenario triggered no preemptions")
	}
	if on.Preemptions == 0 {
		t.Fatal("sharing run triggered no preemptions")
	}
	if on.KV.DemotedBlocks == 0 {
		t.Fatal("preemption under sharing demoted no blocks")
	}
	if on.KV.PromotedBlocks == 0 {
		t.Fatal("re-admission under sharing promoted no blocks")
	}
	if on.KV.TransferTime <= 0 || on.KV.TransferBytes <= 0 {
		t.Fatalf("tier traffic priced at zero: %+v", on.KV)
	}
	if on.ReprefillTokens >= off.ReprefillTokens {
		t.Fatalf("parking did not beat discard: on=%d off=%d re-prefilled tokens",
			on.ReprefillTokens, off.ReprefillTokens)
	}
	if e := on.Energy.Get(energy.Interconnect); e <= 0 {
		t.Fatalf("tier transfers charged no interconnect energy: %v", e)
	}
}

// TestKVStepperInvariants drives sharing-on streams step by step and audits
// the store's full invariant suite — refcount conservation, tier occupancy,
// queue integrity, commitment bounds — after every Step, free running and
// one iteration per Step, then checks the drained store released
// everything.
func TestKVStepperInvariants(t *testing.T) {
	scenarios := []struct {
		name  string
		reqs  []workload.Request
		model model.Config
		batch int
	}{
		{"prefix-stream", kvWorkload(20, 40, 17), model.OPT30B(), 5},
		{"preemptive", func() []workload.Request {
			var reqs []workload.Request
			for i := 0; i < 24; i++ {
				reqs = append(reqs, workload.Request{ID: i, InputLen: 2048, OutputLen: 512,
					Class: workload.ClassBatch})
			}
			for i := 0; i < 6; i++ {
				reqs = append(reqs, workload.Request{ID: 24 + i, InputLen: 2048, OutputLen: 64,
					Arrival: units.Seconds(0.5 + float64(i)), Class: workload.ClassInteractive})
			}
			return reqs
		}(), model.GPT3_175B(), 96},
	}
	for _, sc := range scenarios {
		for _, oneIteration := range []bool{false, true} {
			opt := DefaultOptions(1)
			opt.KV = &kv.Options{BlockTokens: 32, Sharing: true, ColdFactor: 2}
			eng, err := New(newPAPI(), sc.model, opt)
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.NewStreamStepper(sc.reqs, sc.batch)
			if err != nil {
				t.Fatal(err)
			}
			audit := func() {
				leases := make([]*kv.Lease, 0, len(st.active))
				for _, r := range st.active {
					leases = append(leases, r.lease)
				}
				if err := st.kvStore.CheckInvariants(leases); err != nil {
					t.Fatalf("%s one-iteration=%v: %v", sc.name, oneIteration, err)
				}
			}
			audit()
			for st.HasWork() {
				if oneIteration {
					st.SetHorizon(st.Now())
				}
				if _, err := st.Step(); err != nil {
					t.Fatalf("%s one-iteration=%v: %v", sc.name, oneIteration, err)
				}
				audit()
			}
			st.Finalize()
			if got := st.kvStore.CommittedBlocks(); got != 0 {
				t.Fatalf("%s one-iteration=%v: drained store still commits %d blocks", sc.name, oneIteration, got)
			}
		}
	}
}

// TestKVDemandDiscount pins the chat-multiturn headroom fix at the stepper
// boundary: a follow-up whose carried context is resident must not count
// those bytes against KVDemand a second time.
func TestKVDemandDiscount(t *testing.T) {
	opt := DefaultOptions(1)
	opt.KV = &kv.Options{BlockTokens: 16, Sharing: true}
	eng, err := New(newPAPI(), model.OPT30B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	first := workload.Request{ID: 1, InputLen: 96, OutputLen: 64, Turn: 1, PrefixGroup: -1}
	st, err := eng.NewStreamStepper([]workload.Request{first}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for st.HasWork() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	carried := first.SeqLen()
	follow := workload.Request{ID: 2, InputLen: carried + 48, OutputLen: 32, Turn: 2,
		Arrival: st.Now(), PrefixGroup: -1, PrefixLen: carried}
	before := st.KVDemand()
	if err := st.Push(follow); err != nil {
		t.Fatal(err)
	}
	resident := carried / 16 * 16 // full blocks of the carried context stay hot
	want := eng.Cfg.KVBytes(follow.SeqLen()) - eng.Cfg.KVBytes(resident)
	if got := st.KVDemand() - before; got != want {
		t.Fatalf("follow-up added %v to KVDemand, want %v (resident prefix discounted)", got, want)
	}
	// Without sharing there is no discount: the same push counts in full.
	optOff := DefaultOptions(1)
	optOff.KV = &kv.Options{BlockTokens: 16, Sharing: false}
	engOff, err := New(newPAPI(), model.OPT30B(), optOff)
	if err != nil {
		t.Fatal(err)
	}
	stOff, err := engOff.NewStreamStepper(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := stOff.Push(follow); err != nil {
		t.Fatal(err)
	}
	if got, want := stOff.KVDemand(), engOff.Cfg.KVBytes(follow.SeqLen()); got != want {
		t.Fatalf("sharing-off push added %v, want the undiscounted %v", got, want)
	}
}
