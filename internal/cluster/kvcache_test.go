package cluster

import (
	"testing"

	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// TestFollowUpHeadroomDiscount is the chat-multiturn routing regression: a
// follow-up turn's prompt re-declares the conversation's whole grown
// context, but those bytes are already resident on the replica holding the
// conversation. Counting them again would double-bill the replica's KV
// headroom — the signal the KVHeadroom router and the autoscaler's
// KV-pressure trigger balance on — making the holding replica look fuller
// than it is exactly when follow-ups must stick to it.
func TestFollowUpHeadroomDiscount(t *testing.T) {
	opt := serving.DefaultOptions(1)
	opt.KV = &kv.Options{BlockTokens: 16, Sharing: true}
	eng, err := serving.New(newPAPI(), model.LLaMA65B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.NewStreamStepper(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Replica{ID: 0, engine: eng, stepper: st}

	// Turn 1 of a conversation, tagged the way RunPlan tags it.
	first := workload.Request{ID: 0, InputLen: 96, OutputLen: 64,
		Conversation: 0, Turn: 1, PrefixGroup: -1}
	if err := st.Push(first); err != nil {
		t.Fatal(err)
	}
	for st.HasWork() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}

	carried := first.SeqLen()
	follow := workload.Request{ID: 1, InputLen: carried + 32, OutputLen: 16,
		Arrival: st.Now(), Conversation: 0, Turn: 2, PrefixGroup: -1, PrefixLen: carried}
	before := rep.KVHeadroom()
	if err := st.Push(follow); err != nil {
		t.Fatal(err)
	}
	drop := before - rep.KVHeadroom()
	full := eng.Cfg.KVBytes(follow.SeqLen())
	resident := carried / 16 * 16 // the carried context's full blocks stay hot
	want := full - eng.Cfg.KVBytes(resident)
	if drop >= full {
		t.Fatalf("follow-up billed its full footprint %v against headroom (drop %v): carried context double-counted", full, drop)
	}
	if drop != want {
		t.Fatalf("follow-up dropped headroom by %v, want %v (full %v minus resident prefix)", drop, want, full)
	}
}

// TestRunPlanSharingCutsReprefill runs the chat-multiturn scenario end to
// end with and without block sharing: with sharing, follow-up turns adopt
// their carried context, so the fleet's re-prefill tax must strictly drop
// while every turn still completes.
func TestRunPlanSharingCutsReprefill(t *testing.T) {
	run := func(kvo *kv.Options) *FleetResult {
		t.Helper()
		opt := testOptions(2, KVHeadroom())
		opt.Serving.KV = kvo
		c, err := New(newPAPI, model.LLaMA65B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.RunPlan(chatPlan(t, 10, 42))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tally := func(f *FleetResult) (prefill, reprefill int) {
		for _, r := range f.Replicas {
			prefill += r.PrefillTokens
			reprefill += r.ReprefillTokens
		}
		return prefill, reprefill
	}
	off := run(&kv.Options{BlockTokens: 32, Sharing: false})
	on := run(&kv.Options{BlockTokens: 32, Sharing: true})

	offPre, offRep := tally(off)
	onPre, onRep := tally(on)
	if offRep == 0 {
		t.Fatal("multi-turn plan without sharing re-prefilled nothing — scenario lost its carried context")
	}
	if onRep >= offRep {
		t.Fatalf("sharing did not cut the fleet re-prefill tax: on=%d off=%d", onRep, offRep)
	}
	if onPre >= offPre {
		t.Fatalf("sharing did not cut fleet prefill work: on=%d off=%d", onPre, offPre)
	}
	if got, want := workload.TotalTurns(chatPlan(t, 10, 42)), len(on.Requests); want != got {
		t.Fatalf("sharing run served %d of %d turns", want, got)
	}
	if sharedTokens(on) == 0 {
		t.Fatal("sharing run adopted no blocks across the fleet")
	}
}
